"""quadlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload portfolio_sweep --seed 1 --seconds 24 --trace 0

Run from the repository root; quadlab is imported from ``src/``.  The run
sets up (imports quadlab, draws the seed's instances, makes one warm-up
call), then repeats rounds until ``--seconds`` is spent, at least one.  A
round runs every instance once and checks every result; an instance's wall
and CPU time run from its first call to its last checked result.  One call
of the workload's reference kernels (``reference.py``) opens the round and
follows every instance.

Times are reported in reference seconds: an instance's time divided by the
mean of the kernel calls right before and after it, times their nominal
time.  The machine's speed drifts over minutes and stretches both alike, so
the quotient repeats where the raw time does not.  ``--trace 0`` reports
the end-to-end metrics named in BENCHMARK.json.  A pass sums, over
instances, the median over rounds of that quotient.  ``setup_s`` is the
median of three set-ups in fresh interpreters, each scaled by the set-up
reference: the third-party imports timed in another fresh interpreter just
before it.  ``--trace 1`` alternates plain and traced rounds and reports
the per-layer metrics as medians over traced rounds, with
``trace.overhead_s`` the traced minus the plain pass.

Every run also checks that each gate rejects deliberately perturbed copies
of a passing result.  The last line of standard output is the result
object; the line before it carries raw and scaled round times, gate
figures, verdicts and machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process, one BLAS thread: set before numpy is first imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "QUADLAB_THREADS": "1"}
os.environ.update(PINNED_ENV)

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
MIN_ROUNDS = 1
MIN_TRACED_PAIRS = 1


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _set_up(workload_name: str, seed: int):
    """Import quadlab, draw the seed's instances, make one warm-up call."""
    start = perf_counter()
    import workloads  # imports quadlab

    workload = workloads.WORKLOADS[workload_name]
    instances = workload.instances(seed)
    workload.warmup(instances)
    return workload, instances, perf_counter() - start


def _fresh(args: list[str]) -> float:
    """Run a fresh interpreter; its last output line is a time in seconds."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=170, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def _probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, and the set-up reference just before it."""
    import reference

    baseline = _fresh(["-c", reference.BASELINE_IMPORTS])
    setup = _fresh([str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload_name, "--seed", str(seed)])
    return setup, baseline


class Tally:
    """Attempted and failed operations, gate figures and self-test results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.figures: dict[str, float] = {}
        self.verdicts: dict = {}
        self.self_test: dict[str, bool] = {}

    def add(self, ops, checks) -> dict:
        """Record one round; returns its largest gate figure of each kind."""
        self.attempted += len(ops)
        round_figures: dict[str, float] = {}
        for op, (reason, figure) in zip(ops, checks):
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op['kind']}: {reason}")
            if figure is not None:
                round_figures[op["kind"]] = max(round_figures.get(op["kind"], 0.0), figure)
        for kind, figure in round_figures.items():
            self.figures[kind] = max(self.figures.get(kind, 0.0), figure)
        return round_figures

    def first_round(self, ops, checks) -> None:
        """Verdicts of the first round, and the gates' self-test on it.

        Each gate must reject every perturbed copy of a result it passed.
        """
        self.verdicts = self.workload.verdicts(ops)
        seen = set()
        for op, (reason, _) in zip(ops, checks):
            if reason is not None or op["kind"] in seen:
                continue
            seen.add(op["kind"])
            for label, perturbed in self.workload.perturb(op):
                rejected = self.workload.check(perturbed)[0] is not None
                self.self_test[f"{op['kind']}: {label}"] = rejected

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.self_test) and all(self.self_test.values())


def _timed(workload, instance):
    cpu0 = _cpu_s()
    start = perf_counter()
    ops = workload.run(instance)
    checks = [(op["error"], None) if "error" in op else workload.check(op) for op in ops]
    wall = perf_counter() - start
    return wall, _cpu_s() - cpu0, ops, checks


class Rounds:
    """Per-instance wall and CPU times over the rounds of one run.

    Each time is stored with the mean of the reference kernels' times right
    before and right after it; a pass sums each instance's median quotient,
    in reference seconds.
    """

    def __init__(self, workload, count: int):
        self.workload = workload.name
        self.wall = [[] for _ in range(count)]
        self.cpu = [[] for _ in range(count)]
        self.kernel_wall = [[] for _ in range(count)]
        self.kernel_cpu = [[] for _ in range(count)]
        self.last_s = 0.0

    def play(self, workload, instances, tally, first: bool = False) -> dict:
        """Run one round; returns its largest gate figure of each kind."""
        import reference

        start = perf_counter()
        ops, checks = [], []
        before = reference.timed(self.workload)
        for k, instance in enumerate(instances):
            wall, cpu, some_ops, some_checks = _timed(workload, instance)
            after = reference.timed(self.workload)
            self.wall[k].append(wall)
            self.cpu[k].append(cpu)
            self.kernel_wall[k].append((before[0] + after[0]) / 2.0)
            self.kernel_cpu[k].append((before[1] + after[1]) / 2.0)
            before = after
            ops += some_ops
            checks += some_checks
        self.last_s = perf_counter() - start
        if first:
            tally.first_round(ops, checks)
        return tally.add(ops, checks)

    def count(self) -> int:
        return len(self.wall[0])

    def _scaled(self, times, kernels) -> float:
        from reference import nominal_s

        return nominal_s(self.workload) * sum(
            statistics.median(t / r for t, r in zip(ts, rs)) for ts, rs in zip(times, kernels))

    def pass_wall(self) -> float:
        return self._scaled(self.wall, self.kernel_wall)

    def pass_cpu(self) -> float:
        return self._scaled(self.cpu, self.kernel_cpu)

    def round_passes(self) -> list[float]:
        """Each round's wall time over its kernel time, in reference seconds."""
        from reference import nominal_s

        return [nominal_s(self.workload) * sum(t / r for t, r in zip(ts, rs))
                for ts, rs in zip(zip(*self.wall), zip(*self.kernel_wall))]

    def raw(self) -> dict:
        """Unscaled figures: the median pass and the kernel's median time."""
        return {"pass_wall_s": sum(statistics.median(ts) for ts in self.wall),
                "pass_cpu_s": sum(statistics.median(ts) for ts in self.cpu),
                "kernel_s": statistics.median(t for ts in self.kernel_wall for t in ts),
                "rounds": self.count()}


def _measure(workload, instances, seconds, tally) -> Rounds:
    rounds = Rounds(workload, len(instances))
    start = perf_counter()
    while rounds.count() < MIN_ROUNDS or perf_counter() - start + rounds.last_s <= seconds:
        rounds.play(workload, instances, tally, first=rounds.count() == 0)
    return rounds


def _measure_traced(workload, instances, seconds, tally):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, layers = Rounds(workload, len(instances)), Rounds(workload, len(instances)), []

    def traced_round():
        tracer.install()
        tracer.reset()
        try:
            figures = traced.play(workload, instances, tally)
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer, figures))

    def plain_round():
        plain.play(workload, instances, tally, first=plain.count() == 0)

    start = perf_counter()
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or \
            perf_counter() - start + plain.last_s + traced.last_s <= seconds:
        for step in ((plain_round, traced_round) if pairs % 2 == 0 else (traced_round, plain_round)):
            step()
        pairs += 1
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = traced.pass_wall() - plain.pass_wall()
    return metrics, tracer.missing, {"plain_pass_s": plain.pass_wall(),
                                     "traced_pass_s": traced.pass_wall(),
                                     "plain_raw": plain.raw(), "traced_raw": traced.raw()}


def _distributions_setup_s(workload, seed) -> float:
    """Self time of the distributions layer during one traced set-up."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.warmup(workload.instances(seed))
    finally:
        tracer.uninstall()
    return tracer.stat("distributions").self_s


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "quadlab_threads": os.environ["QUADLAB_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("portfolio_sweep", "sparse_subset", "regression_fits",
                                 "quadrangle_eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "quadlab" / "__init__.py").is_file():
        print(f"quadlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        print(_set_up(args.workload, args.seed)[2])
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload, instances, own_setup_s = _set_up(args.workload, args.seed)
    from reference import BASELINE_NOMINAL_S

    tally = Tally(workload)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "own_setup_s": own_setup_s}
    if args.trace:
        values, missing, walls = _measure_traced(workload, instances, args.seconds, tally)
        values["distributions.self_s"] = _distributions_setup_s(workload, args.seed)
        detail.update(walls, untraced_bindings=missing)
    else:
        probes = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        setups = [BASELINE_NOMINAL_S * setup / baseline for setup, baseline in probes]
        rounds = _measure(workload, instances, args.seconds, tally)
        values = {"wall_s": rounds.pass_wall(), "cpu_s": rounds.pass_cpu(),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        detail.update(instances=len(instances), round_wall_s=_spread(rounds.round_passes()),
                      raw=rounds.raw(), setup_s=_spread(setups),
                      setup_probes=probes)
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  fail_frac=tally.failed / tally.attempted, failures=tally.failures,
                  gate_figures=tally.figures, verdicts=tally.verdicts, self_test=tally.self_test)
    print(json.dumps({"detail": detail}, default=str))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
