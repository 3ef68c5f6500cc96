"""Traced fabric worker for the ``grid_sweep`` benchmark workload.

Launched by :class:`perfbench.probes.TracedSubprocessBackend` in place of
``python -m repro.fabric._worker_main``, with the same flags plus
``--spans-file``.  It wraps the lease store, the result cache and the
engine with span probes, runs the stock :func:`repro.fabric.run_worker`
loop, writes the usual worker stats file and then dumps its spans, the
wall time of its first lease claim and the seconds it spent polling
while peers held the last cells.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--ttl", type=float, required=True)
    parser.add_argument("--poll", type=float, required=True)
    parser.add_argument("--stats-file", required=True)
    parser.add_argument("--spans-file", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.probes import fabric_worker_probes
    from perfbench.spans import SpanRecorder
    from repro.experiments.cache import ResultCache
    from repro.fabric import LeaseStore, run_worker
    from repro.fabric.worker import load_manifest
    from repro.fsutil import atomic_write_text

    recorder = SpanRecorder()
    first_claim = []
    idle = [0.0]

    def timed_sleep(seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        idle[0] += time.perf_counter() - start

    with fabric_worker_probes(recorder):
        traced_claim = LeaseStore.claim

        def claim(self, key):
            if not first_claim:
                first_claim.append(time.time())
            return traced_claim(self, key)

        LeaseStore.claim = claim
        tasks = load_manifest(args.manifest)
        cache = ResultCache(args.cache_dir)
        leases = LeaseStore(
            args.cache_dir, run_id=args.run_id, worker_id=args.worker_id,
            ttl_seconds=args.ttl,
        )
        stats = run_worker(
            tasks, cache, leases, poll_interval=args.poll, sleep=timed_sleep
        )
    atomic_write_text(
        args.stats_file, json.dumps(stats.to_dict(), sort_keys=True) + "\n"
    )
    recorder.dump(
        args.spans_file,
        meta={
            "worker_id": args.worker_id,
            "first_claim_at": first_claim[0] if first_claim else None,
            "idle_s": idle[0],
            "main_top_s": recorder.top_level_s(threading.get_ident()),
            "wall_s": stats.wall_seconds,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
