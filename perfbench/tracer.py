"""Layer spans for the traced benchmark run.

The tracer wraps module bindings of quadlab's public functions (the
defining module's and every importing module's, because a caller looks the
name up in its own module) and the ``LpProblem`` builder methods.  Each
wrapped call opens a span; on exit the span's duration is added to its
name's inclusive time, the duration minus its child spans to its self
time, and counts are taken from the returned object.

A call made while the innermost open span belongs to the same group does
not open a new span: spans mark layer boundaries, so ``fit_se`` calling
``fit_biased_mean`` is one ``regression.fit`` span, not two.

Spans are aggregated as they close instead of being stored, because the
regression workload makes hundreds of thousands of builder calls per round.
Nothing is patched until ``install`` runs, and ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _warm_given(args, kwargs):
    return kwargs.get("warm", args[1] if len(args) > 1 else None) is not None


def _count_lp(counts, args, kwargs, result):
    counts["iterations"] += result.iterations
    counts["warm_offered"] += _warm_given(args, kwargs)
    counts["nonoptimal"] += result.status != "optimal"


def _count_mip(counts, args, kwargs, result):
    counts["nodes"] += result.nodes
    counts["lp_iterations"] += result.iterations
    counts["max_gap"] = max(counts["max_gap"], float(result.gap))


def _count_nodes(counts, args, kwargs, result):
    counts["nodes"] += result.nodes


def _count_subsets(counts, args, kwargs, result):
    counts["subsets"] += result.nodes


def _count_points(counts, args, kwargs, result):
    counts["points"] += len(result)


def _count_atoms(counts, args, kwargs, result):
    sample = args[0] if args else None
    counts["atoms"] += getattr(sample, "size", 0)


FUNCTIONALS = ("var", "cvar", "cvar_via_min", "superexpectation", "superexpectation_dual",
               "eval_quantile_quadrangle", "eval_biased_mean_quadrangle",
               "eval_mean_l1_quadrangle", "quadrangle_relation_check", "pos_part_mean",
               "neg_part_mean", "probability_interval_at", "subregularity_probe")
FITS = ("fit_ols", "fit_se", "fit_quantile", "fit_biased_mean")

# (module, attributes, span name, group, counter).  The group defaults to
# the span name.
SPANS = [
    ("quadlab.lp_core", ("solve_lp",), "lp_core.solve_lp", None, _count_lp),
    ("quadlab.lp_core.simplex", ("solve_lp",), "lp_core.solve_lp", None, _count_lp),
    ("quadlab.lp_core.branch_bound", ("solve_lp",), "lp_core.solve_lp", None, _count_lp),
    ("quadlab.regression", ("solve_lp",), "lp_core.solve_lp", None, _count_lp),
    ("quadlab.portfolio", ("solve_lp",), "lp_core.solve_lp", None, _count_lp),
    ("quadlab.lp_core", ("solve_mip",), "lp_core.solve_mip", None, _count_mip),
    ("quadlab.lp_core.branch_bound", ("solve_mip",), "lp_core.solve_mip", None, _count_mip),
    ("quadlab.sparse", ("solve_mip",), "lp_core.solve_mip", None, _count_mip),
    ("quadlab.lp_core.problem.LpProblem",
     ("set_objective", "set_bounds", "add_row", "mark_binary"), "lp_core.build", None, None),
    ("quadlab.regression", FITS, "regression.fit", None, None),
    ("quadlab.sparse", ("fit_ols", "fit_se"), "regression.fit", None, None),
    ("quadlab.experiments", FITS, "regression.fit", None, None),
    ("quadlab.portfolio", ("optimize_se_dev", "optimize_se_dev_raw",
                           "optimize_cvar_dev", "optimize_cvar_dev_raw"),
     "portfolio.optimize", None, None),
    ("quadlab.portfolio", ("equivalence_sweep",), "portfolio.sweep", None, _count_points),
    ("quadlab.experiments", ("equivalence_sweep",), "portfolio.sweep", None, _count_points),
    ("quadlab.sparse", ("fit_sparse_se",), "sparse.fit_se", None, _count_nodes),
    ("quadlab.sparse", ("fit_sparse_mse",), "sparse.fit_mse", None, _count_nodes),
    ("quadlab.sparse", ("brute_force_subset",), "sparse.oracle", None, _count_subsets),
    ("quadlab.functionals", FUNCTIONALS, "functionals", None, _count_atoms),
    ("quadlab.functionals", ("error_projection",), "functionals.error_projection",
     "functionals", _count_atoms),
    ("quadlab.portfolio", ("cvar", "pos_part_mean", "probability_interval_at", "var"),
     "functionals", None, _count_atoms),
    ("quadlab.distributions", ("make_sample", "sample_skew_normal",
                               "skew_normal_cdf_at_zero", "sample_correlated_design"),
     "distributions", None, None),
    ("quadlab.portfolio", ("make_sample",), "distributions", None, None),
    ("quadlab.experiments", ("sample_correlated_design", "sample_skew_normal",
                             "skew_normal_cdf_at_zero"), "distributions", None, None),
    ("quadlab.experiments", ("run_fig1_sweep", "run_table2_pattern", "four_asset_returns",
                             "four_factor_dataset"), "experiments", None, None),
]


class _Stat:
    __slots__ = ("calls", "total", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counts = {"iterations": 0, "warm_offered": 0, "nonoptimal": 0, "nodes": 0,
                       "lp_iterations": 0, "max_gap": 0.0, "subsets": 0, "points": 0,
                       "atoms": 0}


def _resolve(path: str):
    """Import ``path`` as a module, or as a class attribute of a module."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Span recorder over patched quadlab bindings; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.stats = {}
        self._stack.clear()

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def _wrap(self, fn, name, group, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = _Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.self_s += elapsed - frame[1]
            if count is not None:
                count(stat.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for path, attrs, name, group, count in SPANS:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            for attr in attrs:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, name, group or name, count))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(tracer: Tracer, checked: dict) -> dict:
    """Per-layer figures of one traced round.

    ``checked`` maps an operation kind to the largest figure its check
    measured on the same round (sweep cross-gap, oracle difference).
    """
    out = {}
    lp = tracer.stat("lp_core.solve_lp")
    iterations = lp.counts["iterations"]
    out["lp_core.solve_lp.calls"] = lp.calls
    out["lp_core.solve_lp.self_s"] = lp.self_s
    out["lp_core.solve_lp.iterations"] = iterations
    out["lp_core.solve_lp.iters_per_call"] = iterations / lp.calls if lp.calls else 0.0
    out["lp_core.solve_lp.us_per_iter"] = 1e6 * lp.self_s / iterations if iterations else 0.0
    out["lp_core.solve_lp.warm_offered"] = lp.counts["warm_offered"]
    out["lp_core.solve_lp.nonoptimal"] = lp.counts["nonoptimal"]

    build = tracer.stat("lp_core.build")
    out["lp_core.build.calls"] = build.calls
    out["lp_core.build.self_s"] = build.self_s

    mip = tracer.stat("lp_core.solve_mip")
    out["lp_core.solve_mip.calls"] = mip.calls
    out["lp_core.solve_mip.self_s"] = mip.self_s
    out["lp_core.solve_mip.nodes"] = mip.counts["nodes"]
    out["lp_core.solve_mip.lp_iterations"] = mip.counts["lp_iterations"]
    out["lp_core.solve_mip.max_gap"] = mip.counts["max_gap"]

    fit = tracer.stat("regression.fit")
    out["regression.fit.calls"] = fit.calls
    out["regression.fit.self_s"] = fit.self_s

    opt = tracer.stat("portfolio.optimize")
    out["portfolio.optimize.calls"] = opt.calls
    out["portfolio.optimize.self_s"] = opt.self_s
    out["portfolio.sweep.points"] = tracer.stat("portfolio.sweep").counts["points"]
    out["portfolio.sweep.max_rel_gap"] = checked.get("sweep_point", 0.0)

    for key in ("fit_se", "fit_mse"):
        stat = tracer.stat(f"sparse.{key}")
        out[f"sparse.{key}.s"] = stat.total
        out[f"sparse.{key}.nodes"] = stat.counts["nodes"]
    oracle = tracer.stat("sparse.oracle")
    out["sparse.oracle.s"] = oracle.total
    out["sparse.oracle.subsets"] = oracle.counts["subsets"]
    out["sparse.max_oracle_diff"] = max(checked.get("se", 0.0), checked.get("mse", 0.0))

    plain = tracer.stat("functionals")
    projection = tracer.stat("functionals.error_projection")
    self_s = plain.self_s + projection.self_s
    atoms = plain.counts["atoms"] + projection.counts["atoms"]
    out["functionals.calls"] = plain.calls + projection.calls
    out["functionals.self_s"] = self_s
    out["functionals.error_projection.s"] = projection.total
    out["functionals.atoms_per_s"] = atoms / self_s if self_s > 0 else 0.0

    out["experiments.self_s"] = tracer.stat("experiments").self_s
    return out
