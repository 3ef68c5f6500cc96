"""The repository benchmark: workloads, span tracing and correctness checks.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/NOTES.md``.
"""
