"""Print what one ``solve_lp`` call costs on the benchmark's two LP shapes.

Run from the repository root:

    python3 scripts/solve_cost.py --seed 1 --repeats 20

It records the ``solve_lp`` calls of one ``portfolio_sweep`` instance (a
25-point equivalence sweep over 500 scenarios: 4-5 rows, about 506
columns) and of the first n = 10,000 ``regression_fits`` data set (its four
fits), exactly as ``perfbench/workloads.py`` makes them, then replays each
recorded call.  One line per workload gives, averaged over its solves:

- ``profiled`` Python calls and ``numpy`` calls under ``cProfile``: numpy
  functions, their dispatchers, ndarray and ufunc methods, and the
  builtins numpy code calls (ufunc calls such as ``np.isfinite(a)`` or
  ``a + b`` are invisible to the profiler);
- ``iterations``;
- ``us`` per call: the best of ``--repeats`` timed replays of each solve,
  summed and divided by the number of solves.

A second line splits the profiled time of a solve among the simplex steps
(cumulative ``cProfile`` times, so they carry its overhead and do not add
up to the timed ``us``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

# importing run pins one BLAS thread (its PINNED_ENV) before numpy loads
import run  # noqa: E402,F401
import workloads  # noqa: E402
from quadlab import portfolio, regression  # noqa: E402
from quadlab.lp_core import simplex  # noqa: E402

# the solver steps of the split line, as cProfile names them
STEPS = ("validate", "__init__", "warm_start", "dual_phase", "phase1", "phase2", "solution")


def record(workload, instance) -> list:
    """The (problem copy, args, kwargs) of every ``solve_lp`` call one instance makes."""
    calls = []

    def recording(problem, *args, **kwargs):
        calls.append((problem.copy(), args, kwargs))
        return simplex.solve_lp(problem, *args, **kwargs)

    saved = portfolio.solve_lp, regression.solve_lp
    portfolio.solve_lp = regression.solve_lp = recording
    try:
        for op in workload.run(instance):
            if "error" in op:
                raise RuntimeError(f"{workload.name}: {op['error']}")
    finally:
        portfolio.solve_lp, regression.solve_lp = saved
    return calls


def _is_numpy(key) -> bool:
    filename, _, name = key
    return "numpy" in (name if filename == "~" else filename)


def cost(calls, repeats: int) -> tuple[dict, dict]:
    """Per-solve means of the counts and timings, and the profiled split in us."""
    profiler = cProfile.Profile()
    iterations = 0
    for problem, args, kwargs in calls:
        profiler.enable()
        sol = simplex.solve_lp(problem, *args, **kwargs)
        profiler.disable()
        iterations += sol.iterations
    stats = pstats.Stats(profiler).stats
    profiled = sum(nc for _, nc, _, _, _ in stats.values())
    numpy_calls = 0
    for key, (_, nc, _, _, callers) in stats.items():
        if _is_numpy(key):
            numpy_calls += nc
        else:  # a builtin such as getattr counts when numpy code calls it
            numpy_calls += sum(c[1] for caller, c in callers.items() if _is_numpy(caller))
    split = {step: 0.0 for step in STEPS}
    for (filename, _, name), (_, _, _, cumulative, _) in stats.items():
        if name in split and filename.endswith(("simplex.py", "problem.py")):
            split[name] += cumulative
    best = 0.0
    for problem, args, kwargs in calls:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            simplex.solve_lp(problem, *args, **kwargs)
            times.append(perf_counter() - start)
        best += min(times)
    count = len(calls)
    means = {"solves": count, "profiled": profiled / count, "numpy": numpy_calls / count,
             "iterations": iterations / count, "us": 1e6 * best / count}
    return means, {step: 1e6 * t / count for step, t in split.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeats < 1:
        parser.error("--seed must be >= 0 and --repeats >= 1")

    sweep = workloads.WORKLOADS["portfolio_sweep"]
    fits = workloads.WORKLOADS["regression_fits"]
    largest = max(workloads.RegressionFits.SIZES)
    cases = [(sweep, sweep.instances(args.seed)[0]),
             (fits, next(i for i in fits.instances(args.seed)
                         if i[0] == "fits" and i[1].n == largest))]
    for workload, instance in cases:
        means, split = cost(record(workload, instance), args.repeats)
        print(f"{workload.name}: {means['solves']} solves, {means['profiled']:.1f} profiled calls,"
              f" {means['numpy']:.1f} numpy calls, {means['iterations']:.2f} iterations,"
              f" {means['us']:.1f} us per call")
        print(f"{workload.name} profiled us per solve: "
              + ", ".join(f"{step} {t:.1f}" for step, t in split.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
