"""Experiment harness: seeded synthetic studies and report tables.

Every run is a pure function of (config, seed): replication seeds derive as
``seed + replication_index`` over a deterministic enumeration order, and the
report embeds the config, seed, and library version.  Replications can fan
out over processes when QUADLAB_THREADS is set above 1; results are
reassembled in submission order, so the table is identical either way.

External data sets are replaced by documented synthetic generators whose
parameters are recorded in the table metadata; literature values quoted in
metadata are reference points, never assertions.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from . import __version__
from .distributions import (
    DesignSpec,
    SkewNormalSpec,
    sample_correlated_design,
    sample_skew_normal,
    skew_normal_cdf_at_zero,
)
from .portfolio import equivalence_sweep
from .regression import (
    Dataset,
    fit_biased_mean,
    fit_ols,
    fit_quantile,
    fit_se,
    kb_error,
    residuals,
    se_error,
)
from .sparse import (BRUTE_FORCE_GUARD, SparseProblem, brute_force_subset, fit_sparse_mse,
                     fit_sparse_se, support_accuracy)

EXPERIMENT_IDS = ("tables345", "fig1_sweep", "table2_pattern", "sparse_recovery")

PAPER_GRID_START = -1e-4
PAPER_GRID_STEP = 0.0020875
PAPER_GRID_POINTS = 25

# Stand-in scenario generator for the four-asset study: idiosyncratic
# Gaussian noise plus one common factor, dispersed enough that the top of
# the bias grid stays inside the loss range.
FOUR_ASSET_MEANS = (0.0005, 0.0010, 0.0015, 0.0020)
FOUR_ASSET_IDIO_SD = 0.08
FOUR_ASSET_FACTOR_SD = 0.03
FOUR_ASSET_TARGET_MEAN = 0.0012

# Stand-in four-factor regression generator for the cross-error layout.
FOUR_FACTOR_COEFFS = (0.55, 0.50, -0.07, -0.005)
FOUR_FACTOR_INTERCEPT = 0.004
FOUR_FACTOR_RHO = 0.5
FOUR_FACTOR_NOISE_SD = 0.015
FOUR_FACTOR_NOISE_SHAPE = 3.0


class CsvFormatError(ValueError):
    """Malformed CSV input; the message pinpoints row and column."""


# Accepted values of the config fields annotated with each type name; a
# ``list[...]`` field holds a list of such values.
_FIELD_KINDS = {"int": ((int, np.integer), "an integer"),
                "float": ((int, float, np.integer, np.floating), "a finite number"),
                "bool": ((bool, np.bool_), "true or false")}


def _check_field(name: str, value, annotation: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` fits its annotation."""
    kind, values = annotation, [value]
    if annotation.startswith("list["):
        if not isinstance(value, list):
            raise ValueError(f"config field {name!r} must be a list")
        kind, values = annotation[5:-1], value
    if kind not in _FIELD_KINDS:
        return
    types, what = _FIELD_KINDS[kind]
    for v in values:
        if (not isinstance(v, types) or (kind != "bool" and isinstance(v, (bool, np.bool_)))
                or (kind == "float" and not np.isfinite(v))):
            where = " element" if values is value else ""
            raise ValueError(f"config field {name!r}{where} must be {what}, got {v!r}")


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run; unset fields take desk-scale defaults."""

    experiment: str
    seed: int = 20240
    sample_sizes: list[int] = field(default_factory=list)
    replications: int = 0
    shape: float = 10.0
    x_bias: float = 0.005
    x_grid: list[float] = field(default_factory=list)
    rho: float = 0.9
    dimension: int = 30
    k_star: int = 3
    max_nodes: int = 1500
    time_limit_s: float = 300.0
    oracle_check: bool = True

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name), f.type)
        if not self.sample_sizes:
            defaults = {"tables345": [100, 1000, 10000],
                        "fig1_sweep": [10000],
                        "table2_pattern": [1264],
                        "sparse_recovery": [100]}
            self.sample_sizes = defaults[self.experiment]
        if self.replications < 0:
            raise ValueError("replications must be >= 0 (0 takes the default)")
        if self.replications == 0:
            self.replications = {"tables345": 20, "fig1_sweep": 1,
                                 "table2_pattern": 1, "sparse_recovery": 10}[self.experiment]
        if not self.x_grid:
            self.x_grid = [PAPER_GRID_START + k * PAPER_GRID_STEP
                           for k in range(PAPER_GRID_POINTS)]
        if any(s < 1 for s in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if not (1 <= self.k_star <= self.dimension and self.max_nodes >= 1
                and self.time_limit_s > 0):
            raise ValueError("need 1 <= k_star <= dimension, max_nodes >= 1, time_limit_s > 0")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """Read a config from a JSON object of field values.

        A non-object, an unknown or missing key, or a field value of the
        wrong type (checked on construction) raises ``ValueError``.
        """
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ValueError("config needs an 'experiment' key")
        return cls(**raw)


@dataclass
class ReportTable:
    """Rectangular numeric table with optional row labels and metadata.

    Serialization keeps full float precision (repr round-trips doubles), so
    emit followed by load reproduces every cell bit for bit.  A non-finite
    cell is ``nan`` or ``inf`` in CSV and ``null`` in JSON.
    """

    name: str
    columns: list
    rows: list
    row_labels: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")
        if self.row_labels and len(self.row_labels) != len(self.rows):
            raise ValueError("row labels must match the row count")

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv_text(self) -> str:
        head = (["label"] if self.row_labels else []) + list(self.columns)
        lines = [",".join(head)]
        for i, row in enumerate(self.rows):
            cells = [repr(float(v)) for v in row]
            if self.row_labels:
                cells = [self.row_labels[i]] + cells
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"name": self.name, "columns": list(self.columns),
                "rows": [[float(v) for v in row] for row in self.rows],
                "row_labels": list(self.row_labels), "metadata": self.metadata}


def _null_if_not_finite(value):
    """``value`` with each non-finite float in its dicts, lists and tuples as None."""
    if isinstance(value, dict):
        return {k: _null_if_not_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_if_not_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def json_text(payload) -> str:
    """``payload`` as strict JSON (RFC 8259): a non-finite float is written as null.

    Values json cannot write go through ``float``; one that is non-finite
    only then raises ValueError rather than writing a bare NaN.
    """
    return json.dumps(_null_if_not_finite(payload), indent=2, sort_keys=True, default=float,
                      allow_nan=False)


def emit_report(table: ReportTable, path: str, fmt: str = "csv") -> None:
    """Write a table as CSV (cells at full precision) or strict JSON with metadata."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv_text())
    elif fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(table.to_json_dict()) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_csv(path: str, target_column: str | None = None):
    """Read a numeric CSV with a header row.

    With ``target_column`` returns a Dataset (that column is the response,
    the rest the design); without it returns (header, matrix).  Decimal
    separator is the period regardless of locale.  Errors name the missing
    column or the exact offending cell.
    """
    with open(path, "r", encoding="utf-8") as fh:
        reader = list(csv.reader(fh))
    if not reader or len(reader) < 2:
        raise CsvFormatError("need a header row and at least one data row")
    header = [h.strip() for h in reader[0]]
    width = len(header)
    matrix = np.empty((len(reader) - 1, width))
    for r, cells in enumerate(reader[1:], start=2):
        if len(cells) != width:
            raise CsvFormatError(f"ragged row {r}: {len(cells)} cells, expected {width}")
        for c, cell in enumerate(cells):
            try:
                matrix[r - 2, c] = float(cell)
            except ValueError as exc:
                raise CsvFormatError(
                    f"non-numeric cell at row {r}, column {header[c]!r}: {cell!r}") from exc
    if target_column is None:
        return header, matrix
    if target_column not in header:
        raise CsvFormatError(f"target column {target_column!r} not in header {header}")
    t = header.index(target_column)
    design = np.delete(matrix, t, axis=1)
    return Dataset(design, matrix[:, t])


def write_csv(path: str, header, matrix) -> None:
    """Write a numeric matrix under a header row, as ``emit_report`` writes a table."""
    emit_report(ReportTable("", list(header), np.asarray(matrix, dtype=float).tolist()), path)


def _worker_count() -> int:
    """Worker processes from ``QUADLAB_THREADS``, at least 1 and at most the CPU count."""
    try:
        wanted = int(os.environ.get("QUADLAB_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def _map_ordered(fn, args_list):
    workers = _worker_count()
    if workers == 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _base_metadata(config: ExperimentConfig, started: float) -> dict:
    return {"config": asdict(config), "seed": config.seed,
            "runtime_s": time.perf_counter() - started,
            "version": __version__}


# -- convergence study: squared vs part-balancing vs pinball fits -------------

def _tables345_replication(args):
    n, rep_seed, shape, kb_alpha = args
    data = convergence_dataset(n, rep_seed, shape)
    out = []
    for fit in (fit_ols, fit_se, lambda d: fit_quantile(d, kb_alpha)):
        model = fit(data)
        est = np.array([model.intercept, model.coefficients[0]])
        out.append(float(np.linalg.norm(est - np.array([0.0, 1.0]))
                         / np.linalg.norm(est)))
    return out


def run_tables345(config: ExperimentConfig):
    """Relative coefficient-error statistics for the three fits on Y = X + eps.

    eps is the standardized skew-normal at the configured shape; the pinball
    level is its cdf at zero.  Returns one table per method (squared,
    part-balancing, pinball), each with min/avg/max/spread rows per sample
    size.  Metadata carries the average-monotonicity verdict, allowing one
    violation per table for Monte Carlo noise at reduced replication counts.
    """
    started = time.perf_counter()
    kb_alpha = skew_normal_cdf_at_zero(config.shape)
    jobs, index = [], 0
    for n in config.sample_sizes:
        for _ in range(config.replications):
            jobs.append((n, config.seed + index, config.shape, kb_alpha))
            index += 1
    results = _map_ordered(_tables345_replication, jobs)

    tables = []
    columns = ["n", "minimal", "average", "maximal", "spread"]
    for m, method in enumerate(("mse", "se", "kb")):
        rows = []
        pos = 0
        for n in config.sample_sizes:
            errs = np.array([results[pos + r][m] for r in range(config.replications)])
            pos += config.replications
            rows.append([float(n), float(errs.min()), float(errs.mean()),
                         float(errs.max()), float(errs.max() - errs.min())])
        averages = [row[2] for row in rows]
        violations = sum(1 for a, b in zip(averages, averages[1:]) if b > a)
        meta = _base_metadata(config, started)
        meta["kb_alpha"] = kb_alpha
        meta["verdicts"] = {"average_monotone_nonincreasing": violations <= 1,
                            "monotonicity_violations": violations}
        tables.append(ReportTable(name=f"convergence_{method}", columns=columns,
                                  rows=rows, metadata=meta))
    return tables


# -- portfolio objective equivalence sweep ------------------------------------

def four_asset_returns(n: int, seed) -> np.ndarray:
    """Documented stand-in scenario set: one common factor plus idiosyncratic noise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n, 1))
    idio = rng.standard_normal((n, len(FOUR_ASSET_MEANS)))
    return (np.array(FOUR_ASSET_MEANS)
            + FOUR_ASSET_IDIO_SD * idio
            + FOUR_ASSET_FACTOR_SD * factor)


def run_fig1_sweep(config: ExperimentConfig) -> ReportTable:
    """Cross-evaluate part-balancing and tail-average portfolio objectives.

    Each grid point's level alpha is the share level of its part-balancing
    dual, 1 - sum(u) (see ``equivalence_sweep``), where the part-balancing
    weights are tail-average optimal, so ``rel_gap_cvar`` is rounding.
    ``rel_gap_se`` can miss at small n: the tail-average solve may return
    another vertex of its optimal face.
    Each grid point passes when both relative cross-gaps stay within 1e-5.
    The metadata ``diagnostics`` count the tail-average simplex iterations
    and the points where that solve kept the part-balancing weights (there
    ``rel_gap_se`` is zero up to rounding by construction and checks nothing),
    then the iterations of every solve of the sweep by phase (dual, phase 1,
    phase 2) and their bound flips.
    """
    started = time.perf_counter()
    n = config.sample_sizes[0]
    returns = four_asset_returns(n, config.seed)
    rows_raw = equivalence_sweep(returns, FOUR_ASSET_TARGET_MEAN, config.x_grid)
    columns = ["x", "alpha", "se_dev_opt", "cvar_dev_at_se_opt",
               "cvar_dev_opt", "se_dev_at_cvar_opt",
               "rel_gap_cvar", "rel_gap_se", "pass"]
    rows = []
    failures = 0
    for rw in rows_raw:
        if rw["error"]:
            failures += 1
            rows.append([rw["x"], np.nan, np.nan, np.nan, np.nan, np.nan,
                         np.nan, np.nan, 0.0])
            continue
        gap_cvar = abs(rw["cvar_dev_opt"] - rw["cvar_dev_at_se_opt"]) / max(1e-12, abs(rw["cvar_dev_opt"]))
        gap_se = abs(rw["se_dev_opt"] - rw["se_dev_at_cvar_opt"]) / max(1e-12, abs(rw["se_dev_opt"]))
        ok = gap_cvar <= 1e-5 and gap_se <= 1e-5
        failures += 0 if ok else 1
        rows.append([rw["x"], rw["alpha"], rw["se_dev_opt"], rw["cvar_dev_at_se_opt"],
                     rw["cvar_dev_opt"], rw["se_dev_at_cvar_opt"],
                     gap_cvar, gap_se, 1.0 if ok else 0.0])
    meta = _base_metadata(config, started)
    meta["generator"] = {"means": FOUR_ASSET_MEANS, "idio_sd": FOUR_ASSET_IDIO_SD,
                         "factor_sd": FOUR_ASSET_FACTOR_SD,
                         "target_mean": FOUR_ASSET_TARGET_MEAN, "n": n}
    meta["verdicts"] = {"all_points_within_1e-5": failures == 0,
                        "failing_points": failures}
    meta["diagnostics"] = {
        "cvar_iterations": sum(rw["cvar_iterations"] for rw in rows_raw),
        "cvar_kept_se_weights_points": sum(rw["cvar_kept_se_weights"] for rw in rows_raw)}
    for phase, count in zip(("dual", "phase1", "phase2"),
                            np.sum([rw["lp_phase_iterations"] for rw in rows_raw], axis=0)):
        meta["diagnostics"][f"lp_{phase}_iterations"] = int(count)
    meta["diagnostics"]["lp_bound_flips"] = sum(rw["lp_bound_flips"] for rw in rows_raw)
    return ReportTable(name="fig1_sweep", columns=columns, rows=rows, metadata=meta)


# -- cross-error regression layout ---------------------------------------------

def convergence_dataset(n: int, seed, shape: float) -> Dataset:
    """Y = X + eps, X standard normal and eps skew-normal at ``shape``: the convergence draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s_x, s_eps = np.random.SeedSequence(seed).spawn(2)
    x = np.random.default_rng(s_x).standard_normal(n)
    return Dataset(x[:, None], x + sample_skew_normal(SkewNormalSpec(shape), n, s_eps))


def four_factor_dataset(n: int, seed) -> Dataset:
    """Documented stand-in for a four-factor style data set."""
    ss = np.random.SeedSequence(seed)
    s_x, s_eps = ss.spawn(2)
    design = sample_correlated_design(DesignSpec(4, FOUR_FACTOR_RHO), n, s_x)
    eps = sample_skew_normal(SkewNormalSpec(FOUR_FACTOR_NOISE_SHAPE), n, s_eps)
    response = (FOUR_FACTOR_INTERCEPT + design @ np.array(FOUR_FACTOR_COEFFS)
                + FOUR_FACTOR_NOISE_SD * eps)
    return Dataset(design, response)


def run_table2_pattern(config: ExperimentConfig) -> ReportTable:
    """Side-by-side fit comparison at bias x and its induced pinball level.

    Rows: parameter, four coefficients, intercept, then each error function
    evaluated at both optima.  Passing means the cross-evaluated objectives
    agree with the native optima to 1e-6 relative.
    """
    started = time.perf_counter()
    n = config.sample_sizes[0]
    data = four_factor_dataset(n, config.seed)
    x = config.x_bias

    bm_model = fit_biased_mean(data, x)
    bm_res = residuals(bm_model, data)
    alpha_star = bm_model.equiv_alpha
    qr_model = fit_quantile(data, alpha_star)
    qr_res = residuals(qr_model, data)

    se_at_bm = se_error(bm_res.z, x)
    se_at_qr = se_error(qr_res.z, x)
    kb_at_bm = kb_error(bm_res.z, alpha_star)
    kb_at_qr = kb_error(qr_res.z, alpha_star)

    # The one-way inclusion makes the pinball cross-check exact; the reverse
    # evaluation sits anywhere on the pinball fit's optimal face, so its gap
    # measures plateau width and is reported without being asserted.
    rel_kb = abs(kb_at_bm - kb_at_qr) / max(1e-12, abs(kb_at_qr))
    rel_se = abs(se_at_qr - se_at_bm) / max(1e-12, abs(se_at_bm))

    columns = ["se_fit", "kb_fit"]
    rows = [[x, alpha_star]]
    labels = ["parameter"]
    for j in range(data.d):
        rows.append([float(bm_model.coefficients[j]), float(qr_model.coefficients[j])])
        labels.append(f"factor_{j + 1}")
    rows.append([bm_model.intercept, qr_model.intercept])
    labels.append("intercept")
    rows.append([se_at_bm, kb_at_bm])
    labels.append("errors_at_se_fit_optimum")
    rows.append([se_at_qr, kb_at_qr])
    labels.append("errors_at_kb_fit_optimum")

    meta = _base_metadata(config, started)
    meta["generator"] = {"coeffs": FOUR_FACTOR_COEFFS, "intercept": FOUR_FACTOR_INTERCEPT,
                         "rho": FOUR_FACTOR_RHO, "noise_sd": FOUR_FACTOR_NOISE_SD,
                         "noise_shape": FOUR_FACTOR_NOISE_SHAPE, "n": n}
    meta["alpha_star"] = alpha_star
    meta["verdicts"] = {"kb_cross_objective_within_1e-6": rel_kb <= 1e-6,
                        "rel_gap_kb": rel_kb}
    meta["se_plateau_gap"] = rel_se
    meta["reference_only"] = "external-data coefficient values are not reproduced"
    return ReportTable(name="table2_pattern", columns=columns, rows=rows,
                       row_labels=labels, metadata=meta)


# -- sparse recovery -----------------------------------------------------------

def _sparse_replication(args):
    (n, rep_seed, d, rho, k_star, method, max_nodes, time_limit, oracle_check) = args
    ss = np.random.SeedSequence(rep_seed)
    s_x, s_c, s_eps = ss.spawn(3)
    design = sample_correlated_design(DesignSpec(d, rho), n, s_x)
    rng_c = np.random.default_rng(s_c)
    # One support index per equal block: random large-dimension placement
    # makes true columns nearly uncorrelated, and the desk-scale stand-in
    # keeps that separation so the planted support stays identifiable.
    block = d // k_star
    support = np.array([b * block + rng_c.integers(block) for b in range(k_star)])
    coeffs = np.zeros(d)
    coeffs[support] = rng_c.choice([-1.0, 1.0], size=k_star)
    response = design @ coeffs + np.random.default_rng(s_eps).standard_normal(n)
    data = Dataset(design, response)
    problem = SparseProblem(data, k=k_star, error_kind=method,
                            max_nodes=max_nodes, time_limit_s=time_limit)
    sol = fit_sparse_se(problem) if method == "se" else fit_sparse_mse(problem)
    acc = support_accuracy(sol.model, coeffs, k_star).accuracy
    oracle_gap = np.nan
    if oracle_check:
        oracle = brute_force_subset(data, k_star, method)
        oracle_gap = abs(sol.objective - oracle.objective)
    return acc, sol.time_s, sol.gap, oracle_gap


def run_sparse_recovery(config: ExperimentConfig) -> ReportTable:
    """Support-recovery accuracy for both sparse fitters on planted signals.

    Per method and sample size: min/avg/max accuracy, average solve time and
    bound gap, plus the worst absolute objective difference against the
    exhaustive oracle when the enumeration guard allows it.
    """
    started = time.perf_counter()
    oracle_ok = (config.oracle_check
                 and math.comb(config.dimension, config.k_star) <= BRUTE_FORCE_GUARD)
    columns = ["n", "min_accuracy", "avg_accuracy", "max_accuracy",
               "avg_time_s", "avg_gap", "max_oracle_diff"]
    rows, labels = [], []
    verdicts = {}
    index = 0
    for method in ("se", "mse"):
        for n in config.sample_sizes:
            jobs = []
            for _ in range(config.replications):
                jobs.append((n, config.seed + index, config.dimension, config.rho,
                             config.k_star, method, config.max_nodes,
                             config.time_limit_s, oracle_ok))
                index += 1
            out = _map_ordered(_sparse_replication, jobs)
            accs = np.array([o[0] for o in out])
            times = np.array([o[1] for o in out])
            gaps = np.array([o[2] for o in out])
            diffs = np.array([o[3] for o in out])
            rows.append([float(n), float(accs.min()), float(accs.mean()),
                         float(accs.max()), float(times.mean()), float(gaps.mean()),
                         float(np.nanmax(diffs)) if oracle_ok else np.nan])
            labels.append(f"{method}_n{n}")
            verdicts[f"{method}_n{n}_oracle_within_1e-6"] = (
                bool(np.nanmax(diffs) <= 1e-6) if oracle_ok else None)
            verdicts[f"{method}_n{n}_perfect_recovery_count"] = int(np.sum(accs >= 1.0))
    meta = _base_metadata(config, started)
    meta["signal"] = {"d": config.dimension, "rho": config.rho,
                      "k_star": config.k_star, "coeff_values": [-1.0, 1.0],
                      "noise": "standard normal",
                      "support_placement": "one index per equal block (well separated)"}
    meta["verdicts"] = verdicts
    meta["reference_only"] = "full-scale results are quoted in the literature, not reproduced here"
    return ReportTable(name="sparse_recovery", columns=columns, rows=rows,
                       row_labels=labels, metadata=meta)


def run_experiment(config: ExperimentConfig):
    """Dispatch on the experiment id; returns a list of ReportTables."""
    if config.experiment == "tables345":
        return run_tables345(config)
    if config.experiment == "fig1_sweep":
        return [run_fig1_sweep(config)]
    if config.experiment == "table2_pattern":
        return [run_table2_pattern(config)]
    return [run_sparse_recovery(config)]


def verdicts_pass(tables) -> bool:
    """True when every boolean verdict in every table metadata holds."""
    for table in tables:
        for value in table.metadata.get("verdicts", {}).values():
            if value is False:
                return False
    return True
