"""Print each round's wall time and minor page faults for one benchmark workload.

Run from the repository root:

    python3 scripts/heap_faults.py --workload regression_fits --seed 1 --rounds 4

A round runs and checks every instance of ``perfbench/workloads.py`` once,
as ``perfbench/run.py`` does, but calls no reference kernels between
instances.  One line per round gives its wall seconds and the growth of
``ru_minflt`` (``getrusage(RUSAGE_SELF)``) over it.  A steady count after
round 0 means the process keeps faulting fresh pages in: glibc's ``free``
hands the top of the heap back to the system once more than
``M_TRIM_THRESHOLD`` of it is free, and the next large allocation maps it
again.  Compare with ``MALLOC_TRIM_THRESHOLD_`` set high in the
environment, which stops that trimming.  Allocation order decides whether a
tree pays this, so a change that moves it can move a workload's time
without touching the code the workload runs.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

# importing run pins one BLAS thread (its PINNED_ENV) before numpy loads
import run  # noqa: E402,F401
import workloads  # noqa: E402


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.rounds < 1:
        parser.error("--seed must be >= 0 and --rounds >= 1")

    workload = workloads.WORKLOADS[args.workload]
    instances = workload.instances(args.seed)
    workload.warmup(instances)
    for k in range(args.rounds):
        faults, start = _minor_faults(), perf_counter()
        for instance in instances:
            for op in workload.run(instance):
                if "error" not in op:
                    workload.check(op)
        wall = perf_counter() - start
        print(f"round {k} wall_s {wall:.4f} minor_faults {_minor_faults() - faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
