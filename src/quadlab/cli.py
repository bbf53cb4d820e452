"""Command-line entry point.

Subcommands: fit, eval, simulate, portfolio, sparse, experiment.  Tables go
to CSV, single results to strict JSON (a non-finite number is null); every
path is explicit and nothing writes to the working directory implicitly.
The experiment subcommand exits nonzero if any asserted verdict fails.
Usage errors (a missing ``--alpha``, an unknown ``--column``, a bad
``--sweep``, ``--big-m`` without ``--milp``), bad input and solver failures
(``LpError``, e.g. an unattainable target mean) exit 2 with a one-line
``error: ...`` message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .distributions import (
    DesignSpec,
    SkewNormalSpec,
    make_sample,
    sample_correlated_design,
    sample_skew_normal,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    convergence_dataset,
    emit_report,
    four_asset_returns,
    four_factor_dataset,
    json_text,
    load_csv,
    run_experiment,
    verdicts_pass,
    write_csv,
)
from .functionals import (
    eval_biased_mean_quadrangle,
    eval_mean_l1_quadrangle,
    eval_quantile_quadrangle,
)
from .lp_core import LpError
from .portfolio import PortfolioProblem, equivalence_sweep, optimize_cvar_dev, optimize_se_dev
from .regression import fit_biased_mean, fit_ols, fit_quantile, fit_se, induced_alpha, residuals
from .sparse import SparseProblem, brute_force_subset, fit_sparse_mse, fit_sparse_se, fit_sparse_se_milp


def _write_json(payload: dict, path: str | None) -> None:
    text = json_text(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_fit(args) -> int:
    data = load_csv(args.input, args.target)
    if args.method == "ols":
        model = fit_ols(data)
        params = {}
    elif args.method == "quantile":
        if args.alpha is None:
            raise ValueError("--alpha is required for --method quantile")
        model = fit_quantile(data, args.alpha)
        params = {"alpha": args.alpha}
    elif args.method == "se":
        model = fit_se(data)
        params = {"x": 0.0}
    else:
        model = fit_biased_mean(data, args.x)
        params = {"x": args.x}
    lo, hi = induced_alpha(residuals(model, data))
    _write_json({
        "method": args.method,
        "params": params,
        "intercept": model.intercept,
        "coefficients": model.coefficients.tolist(),
        "objective": model.objective,
        "induced_alpha": [lo, hi],
        "regularized": model.regularized,
    }, args.output)
    return 0


def _cmd_eval(args) -> int:
    header, matrix = load_csv(args.input)
    column = args.column or header[0]
    if column not in header:
        raise ValueError(f"column {column!r} not found in {header}")
    sample = make_sample(matrix[:, header.index(column)])
    if args.family == "quantile":
        if args.alpha is None:
            raise ValueError("--alpha is required for the quantile family")
        ev = eval_quantile_quadrangle(sample, args.alpha)
    elif args.family == "biased_mean":
        ev = eval_biased_mean_quadrangle(sample, args.x)
    else:
        ev = eval_mean_l1_quadrangle(sample)
    payload = {
        "family": ev.family,
        "param": ev.param,
        "risk": ev.risk,
        "deviation": ev.deviation,
        "regret": ev.regret,
        "error": ev.error,
        "statistic": ev.statistic,
    }
    if ev.statistic_interval is not None:
        payload["statistic_interval"] = list(ev.statistic_interval)
        payload["statistic_note"] = "midpoint of an interval-valued statistic"
    _write_json(payload, args.output)
    return 0


def _cmd_simulate(args) -> int:
    if args.kind == "skewnormal":
        values = sample_skew_normal(SkewNormalSpec(args.shape), args.n, args.seed)
        write_csv(args.output, ["eps"], values[:, None])
    elif args.kind == "design":
        x = sample_correlated_design(DesignSpec(args.d, args.rho), args.n, args.seed)
        write_csv(args.output, [f"x{j + 1}" for j in range(args.d)], x)
    elif args.kind == "regression":
        data = convergence_dataset(args.n, args.seed, args.shape)
        write_csv(args.output, ["x", "y"], np.column_stack((data.design, data.response)))
    elif args.kind == "returns":
        r = four_asset_returns(args.n, args.seed)
        write_csv(args.output, [f"asset{j + 1}" for j in range(r.shape[1])], r)
    else:
        data = four_factor_dataset(args.n, args.seed)
        write_csv(args.output, [f"x{j + 1}" for j in range(data.d)] + ["y"],
                  np.column_stack((data.design, data.response)))
    print(f"wrote {args.output}")
    return 0


def _cmd_portfolio(args) -> int:
    header, matrix = load_csv(args.input)
    if args.sweep:
        try:
            x0, x1, step = (float(v) for v in args.sweep.split(":"))
        except ValueError as exc:
            raise ValueError("--sweep wants x0:x1:step") from exc
        if not (np.all(np.isfinite([x0, x1, step])) and step > 0):
            raise ValueError("--sweep wants finite x0:x1:step with step > 0")
        if x1 < x0:
            raise ValueError("--sweep wants x0 <= x1")
        if (x1 - x0) / step > 10_000:  # the paper's grid takes 24 steps
            raise ValueError("--sweep takes more than 10,000 steps")
        as_json = args.format == "json" or (args.output or "").endswith(".json")
        if not as_json and not args.output:
            raise ValueError("--output is required for CSV sweeps")
        grid = list(np.arange(x0, x1 + 0.5 * step, step))
        rows = equivalence_sweep(matrix, args.mu, grid, long_only=args.long_only)
        out_header = ["x", "alpha", "se_dev_opt", "cvar_dev_at_se_opt",
                      "cvar_dev_opt", "se_dev_at_cvar_opt"]
        table = [[rw[k] for k in out_header] for rw in rows]
        if as_json:
            _write_json({"columns": out_header, "rows": table,
                         "errors": [rw["error"] for rw in rows]}, args.output)
        else:
            write_csv(args.output, out_header, table)
            print(f"wrote {args.output}")
        return 0
    problem = PortfolioProblem(matrix, args.mu, long_only=args.long_only)
    if args.objective == "se":
        sol = optimize_se_dev(problem, args.x)
        params = {"x": args.x}
    else:
        if args.alpha is None:
            raise ValueError("--alpha is required for --objective cvar")
        sol = optimize_cvar_dev(problem, args.alpha)
        params = {"alpha": args.alpha}
    _write_json({
        "objective": args.objective,
        "params": params,
        "weights": dict(zip(header, sol.weights.tolist())),
        "deviation": sol.deviation,
        "alpha_interval": list(sol.alpha_interval),
        "mean_return": -sol.losses.mean(),
    }, args.output)
    return 0


def _cmd_sparse(args) -> int:
    if args.milp and args.oracle:
        raise ValueError("give --milp or --oracle, not both")
    if args.milp and args.error != "se":
        raise ValueError("--milp needs --error se")
    if args.big_m != "auto" and not args.milp:
        raise ValueError("--big-m applies only with --milp")
    data = load_csv(args.input, args.target)
    big_m = None if args.big_m == "auto" else float(args.big_m)
    problem = SparseProblem(data, k=args.k, error_kind=args.error, big_m=big_m,
                            time_limit_s=args.time_limit, gap_tol=args.gap,
                            max_nodes=args.max_nodes)
    if args.oracle:
        sol = brute_force_subset(data, args.k, args.error)
    elif args.milp:
        sol = fit_sparse_se_milp(problem)
    elif args.error == "se":
        sol = fit_sparse_se(problem)
    else:
        sol = fit_sparse_mse(problem)
    _write_json({
        "error": args.error,
        "k": args.k,
        "support": list(sol.support),
        "intercept": sol.model.intercept,
        "coefficients": sol.model.coefficients.tolist(),
        "objective": sol.objective,
        "bound": sol.bound,
        "gap": sol.gap,
        "status": sol.status,
        "nodes": sol.nodes,
        "time_s": sol.time_s,
        "big_m_active": sol.big_m_active,
    }, args.output)
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
        if args.id and args.id != config.experiment:
            raise ValueError("--id disagrees with the config file")
    else:
        if not args.id:
            raise ValueError("give --id or --config")
        config = ExperimentConfig(experiment=args.id, seed=args.seed)
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)  # before the study, so a bad path costs no work
    tables = run_experiment(config)
    for table in tables:
        base = f"{out_dir.rstrip('/')}/{table.name}"
        emit_report(table, base + ".csv", "csv")
        emit_report(table, base + ".json", "json")
        print(f"wrote {base}.csv and {base}.json")
        for key, value in table.metadata.get("verdicts", {}).items():
            print(f"  verdict {table.name}.{key}: {value}")
        for key, value in table.metadata.get("diagnostics", {}).items():
            print(f"  {table.name}.{key}: {value}")
    ok = verdicts_pass(tables)
    print("ALL VERDICTS PASS" if ok else "VERDICT FAILURES PRESENT")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadlab",
                                     description="risk-quadrangle toolkit")
    parser.add_argument("--version", action="version", version=f"quadlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a linear model to CSV data")
    p.add_argument("--method", choices=["ols", "quantile", "se", "bmr"], required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate quadrangle corners on one column")
    p.add_argument("--family", choices=["quantile", "biased_mean", "mean_l1"], required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--input", required=True)
    p.add_argument("--column")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("simulate", help="emit a generated data set as CSV")
    p.add_argument("--kind", choices=["skewnormal", "design", "regression",
                                      "returns", "factors"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape", type=float, default=10.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("portfolio", help="scenario portfolio optimization")
    p.add_argument("--objective", choices=["se", "cvar"], default="se")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--sweep", help="x0:x1:step grid for the equivalence sweep")
    p.add_argument("--long-only", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_portfolio)

    p = sub.add_parser("sparse", help="cardinality-constrained regression")
    p.add_argument("--error", choices=["mse", "se"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--gap", type=float, default=1e-9)
    p.add_argument("--big-m", default="auto", help="box of the big-M program (with --milp)")
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="force exhaustive enumeration")
    p.add_argument("--milp", action="store_true",
                   help="solve the big-M mixed-binary program (--error se) instead of "
                        "the include/exclude search")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_sparse)

    p = sub.add_parser("experiment", help="run a seeded study and emit reports")
    p.add_argument("--id", choices=EXPERIMENT_IDS)
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, LpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
