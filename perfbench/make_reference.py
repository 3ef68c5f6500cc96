"""Rewrite ``perfbench/reference.json``: output digests for the default seeds.

Run from the repository root after a deliberate change to simulation
results or to a workload's parameters::

    python3 perfbench/make_reference.py            # every workload
    python3 perfbench/make_reference.py grid_sweep # one workload

The engine workloads store the digest of each input a seed builds.  The
grid reference is computed serially, without the fabric, so a benchmark
run that matches it also shows that fabric sharding is bit-identical.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS, GridSweep  # noqa: E402

#: Benchmark seeds whose outputs are pinned.
DEFAULT_SEEDS = range(0, 11)
#: Hex digits of each digest kept in the reference file.
PREFIX = 16


def reference(cls, workdir: Path) -> dict:
    digests = {}
    for seed in DEFAULT_SEEDS:
        workload = cls(seed, workdir)
        workload.references = {}
        workload.setup()
        if isinstance(workload, GridSweep):
            cells = workload.serial_digest()
            digests[str(workload.grid_seed())] = [cell[:PREFIX] for cell in cells]
        else:
            for index in range(workload.inputs):
                rep = workload.run(index)
                digests[str(workload.input_seed(index))] = rep.digest[:PREFIX]
        print(f"{cls.name} seed {seed}: done", file=sys.stderr, flush=True)
    return {"params": workload.params(), "digests": digests}


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    references = checks.load_references()
    workdir = ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            references[name] = reference(WORKLOADS[name], workdir)
            with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
