"""Print a SHA-256 over every field of a fixed set of LP solves and searches.

Run from the repository root, twice, in separate processes; identical
inputs must give identical output byte for byte.  Run it on two trees to
check that a change leaves every solve and search as it was:

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
    PYTHONPATH=src python3 scripts/lp_digest.py > lp_digest_1.out
    PYTHONPATH=src python3 scripts/lp_digest.py > lp_digest_2.out
    cmp lp_digest_1.out lp_digest_2.out

The readable part of each line, up to the hash, is checked in as
``scripts/lp_digest.expected``; a change that moves a label, status, phase
split or count shows in its diff:

    sed -E 's/ [0-9a-f]{64}$//' lp_digest_1.out | diff scripts/lp_digest.expected -

The hashes are compared only between runs on one machine, with the BLAS
thread count pinned as above: float bits may differ between numpy builds,
and the part-balancing fits at n = 10,000 change with the number of
OpenBLAS threads.

The set covers each start ``solve_lp`` takes: regression duals at n = 100
and 10,000 (pinball at two levels and the centred part-balancing dual at
two biases, each from its OLS crash, so through the dual phase where the
crash is not optimal already), the part-balancing and tail-average
portfolio duals under each sign policy (the long-only ones on the long-only
sweep's problem, with its ``<=`` asset rows), a cold start that needs phase 1, the box walk (five
equality rows over 300 [0, 1] columns, warm-started from the feasible
basis its phase 1 finds), whose phase 2 runs past 200 iterations under
Dantzig's rule because its objective keeps falling, and a best-subset
relaxation with freed rows warm-started from its parent, solved to
optimality and also stopped at a cutoff halfway (its status, objective,
iterations and phase split).  The
searches hash every ``MipSolution`` field and every ``SparseSolution``
field except ``time_s``: knapsack MIPs that branch, three under a node
budget (ending with an incumbent, without one, and with one from an
incumbent hint), SE and MSE subset searches with and without a node
budget, and one big-M MILP.  The box-LP stacks hash
every ``StackSolution`` field: the part-balancing oracle of a d = 8 planted
instance, a tied and a degenerate random stack, and a stack with no more
columns than rows.  One equivalence sweep per sign policy hashes every row
field, phase iterations and bound flips included; each sweep re-solves its
problem's two cached duals from point to point, the part-balancing rows and
the tail-average dual built from them plus its sum-to-one row.  A fit
chain hashes every ``LinearModel`` field of five fits on one ``Dataset``,
each run after the ones before it, so a value the data set keeps from fit
to fit shows if it goes stale.
One line per solve, search, stack, sweep or chain, then the total.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import NamedTuple

import numpy as np

from quadlab import regression, sparse
from quadlab.distributions import DesignSpec, sample_correlated_design
from quadlab.experiments import FOUR_ASSET_TARGET_MEAN, ExperimentConfig, four_asset_returns
from quadlab.lp_core import LpProblem, crash_basis, solve_box_stack, solve_lp, solve_mip
from quadlab.lp_core.simplex import _Simplex
from quadlab.portfolio import (PortfolioProblem, equivalence_sweep, optimize_cvar_dev,
                               optimize_se_dev)


class _CutSolve(NamedTuple):
    """What a solve stopped at its cutoff reports of itself."""

    status: str
    objective: float
    iterations: int
    phase_iterations: tuple[int, int, int]


def _update(h, value) -> None:
    """Hash dataclass fields (``time_s`` aside) by name, array bytes, exact floats, lists."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple
        for name, item in zip(value._fields, value):
            h.update(name.encode())
            _update(h, item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name != "time_s":
                h.update(f.name.encode())
                _update(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
    elif isinstance(value, float):
        h.update(np.float64(value).tobytes())
    elif isinstance(value, list):
        h.update(f"list {len(value)}".encode())
        for item in value:
            _update(h, item)
    elif isinstance(value, dict):
        for key, item in value.items():
            h.update(f"{key}".encode())
            _update(h, item)
    else:
        h.update(repr(value).encode())


def _digest(sol) -> str:
    h = hashlib.sha256()
    _update(h, sol)
    return h.hexdigest()


def _regression_duals():
    for n in (100, 10_000):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        data = regression.Dataset(x[:, None], x + rng.standard_normal(n) ** 2)
        for level in (0.5, 0.9):
            ratio = level / (1.0 - level)
            problem, warm = regression._dual_problem(data, -1.0 / n, ratio / n, level)
            yield f"regression n={n} level={level}", solve_lp(problem, warm=warm)
        for x_bias in (0.0, 0.1):
            problem, warm = regression._se_problem(data, x_bias)
            yield f"regression se n={n} x={x_bias}", solve_lp(problem, warm=warm)


def _fit_chain():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1000, 2))
    data = regression.Dataset(x, x @ np.array([1.0, -0.5]) + rng.standard_normal(1000) ** 2)
    fits = {"ols": regression.fit_ols(data), "se": regression.fit_se(data)}
    fits["quantile at se equiv_alpha"] = regression.fit_quantile(data, fits["se"].equiv_alpha)
    fits["biased mean x=0.1"] = regression.fit_biased_mean(data, 0.1)
    fits["quantile 0.8"] = regression.fit_quantile(data, 0.8)
    yield "fit chain n=1000 d=2", fits


def _long_only_target(returns) -> float:
    # long-only, a target above all but one asset mean leaves some weights idle
    return float(np.sort(returns.mean(axis=0))[-2])


def _portfolio_duals():
    returns = four_asset_returns(2000, 5)
    problem = PortfolioProblem(returns, FOUR_ASSET_TARGET_MEAN)
    yield "portfolio se x=0.002", optimize_se_dev(problem, 0.002).lp
    yield "portfolio cvar alpha=0.9", optimize_cvar_dev(problem, 0.9).lp
    problem = PortfolioProblem(returns, _long_only_target(returns), long_only=True)
    yield "portfolio se long_only x=0.002", optimize_se_dev(problem, 0.002).lp
    yield "portfolio cvar long_only alpha=0.9", optimize_cvar_dev(problem, 0.9).lp


def _sweeps():
    returns = four_asset_returns(2000, 5)
    grid = ExperimentConfig(experiment="fig1_sweep").x_grid
    for long_only, mu in ((False, FOUR_ASSET_TARGET_MEAN), (True, _long_only_target(returns))):
        yield f"sweep long_only={long_only}", equivalence_sweep(returns, mu, grid, long_only)


def _phase1_start():
    # a free column with a cost keeps the slack start out of the dual phase
    rng = np.random.default_rng(1)
    problem = LpProblem(8)
    problem.set_objective(np.append(rng.uniform(0.5, 2.0, 7), 1.0))
    problem.set_bounds(slice(0, 7), 0.0, 2.0)
    problem.add_rows(np.column_stack((rng.uniform(0.2, 1.0, (4, 7)), np.ones(4))), ">=",
                     rng.uniform(1.0, 3.0, 4))
    sol = solve_lp(problem)
    if sol.phase_iterations[1] == 0:
        raise SystemExit("the phase-1 case no longer runs phase 1")
    yield "phase-1 start", sol


def _box_walk():
    # a cold solve_lp takes the dual phase (ten long steps); from the
    # feasible basis phase 1 finds, phase 2 takes hundreds of pivots
    rng = np.random.default_rng(2)
    problem = LpProblem(300)
    problem.set_objective(rng.standard_normal(300))
    problem.set_bounds(slice(0, 300), 0.0, 1.0)
    a = rng.standard_normal((5, 300))
    problem.add_rows(a, "=", a.sum(axis=1) / 2)
    start = _Simplex(problem)
    start.warm_start(*crash_basis(problem, ()))
    if start.phase1(10**6) != "feasible":
        raise SystemExit("the box walk's phase 1 no longer ends feasible")
    sol = solve_lp(problem, warm=(start.basis, start.vstate))
    if sol.phase_iterations[2] <= 200:
        raise SystemExit("the box walk's phase 2 no longer runs past 200 iterations")
    yield "box walk phase 2", sol


def _subset_relaxation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 5))
    data = regression.Dataset(x, x @ np.array([1.0, 0.0, -2.0, 0.5, 0.0])
                              + rng.standard_normal(300))
    oracle = regression.SeSubsetOracle(data)
    _, root = oracle.relax((), (0, 1, 2, 3, 4), None)
    yield "subset root", root[2]
    child_bound, child = oracle.relax((0,), (2,), root)  # rows of columns 1, 3 and 4 freed
    yield "subset child", child[2]
    # the same relaxation stopped halfway from its start to its optimum
    _, cut = oracle.relax((0,), (2,), root, 0.5 * (root[1] + child_bound))
    sol = cut[2]
    if sol.status != "cutoff" or not 0 < sol.iterations < child[2].iterations:
        raise SystemExit("the subset child is no longer cut short of its optimum")
    yield "subset child cut", _CutSolve(sol.status, sol.objective, sol.iterations,
                                        sol.phase_iterations)


def _knapsack(seed, nb=10):
    """Two-row multi-knapsack: binaries in the objective, and one boxed continuous column."""
    rng = np.random.default_rng(seed)
    problem = LpProblem(nb + 1)
    problem.set_objective(np.append(-rng.uniform(0.5, 1.5, nb), 0.3))
    problem.mark_binary(slice(0, nb))
    problem.set_bounds(nb, 0.0, 2.0)
    problem.add_rows(np.column_stack((rng.uniform(0.2, 1.0, (2, nb)), [-1.0, 0.5])), "<=",
                     [nb / 4, nb / 3])
    return problem


def _mips():
    for seed in (1, 2, 3):
        sol = solve_mip(_knapsack(seed), gap_tol=0.0)
        if sol.nodes < 2:
            raise SystemExit(f"knapsack {seed} no longer branches")
        yield f"mip knapsack {seed}", sol
    # under a 3-node budget the 14-binary knapsack ends without an incumbent,
    # unless it is hinted with the optimum
    hint = solve_mip(_knapsack(5, nb=14), gap_tol=0.0).x[:14]
    for nb, given, status in ((12, None, "feasible"), (14, None, "node_limit"),
                              (14, hint, "feasible")):
        sol = solve_mip(_knapsack(5, nb=nb), gap_tol=0.0, max_nodes=3, incumbent_hint=given)
        if sol.status != status:
            raise SystemExit(f"the {nb}-binary knapsack no longer stops on its budget")
        yield f"mip knapsack 5 nb={nb} max_nodes=3 hinted={given is not None}", sol


def _searches():
    for seed in (1, 2):
        ss = np.random.SeedSequence(seed)
        s_x, s_e = ss.spawn(2)
        x = sample_correlated_design(DesignSpec(8, 0.6), 100, s_x)
        noise = np.random.default_rng(s_e).standard_normal(100)
        # a weak signal, so that the searches branch
        data = regression.Dataset(x, 0.1 * (x[:, 1] - x[:, 5] + 0.5 * x[:, 6]) + noise)
        for kind, fit in (("se", sparse.fit_sparse_se), ("mse", sparse.fit_sparse_mse)):
            for max_nodes in (None, 2):
                problem = sparse.SparseProblem(data, k=3, error_kind=kind, max_nodes=max_nodes)
                yield f"search {kind} seed={seed} max_nodes={max_nodes}", fit(problem)
    x = np.random.default_rng(9).standard_normal((60, 5))
    data = regression.Dataset(x, x[:, 0] - 2.0 * x[:, 3]
                              + np.random.default_rng(10).standard_normal(60))
    yield "big-M milp", sparse.fit_sparse_se_milp(sparse.SparseProblem(data, k=2))


def _stacks():
    ss = np.random.SeedSequence(3)
    s_x, s_e = ss.spawn(2)
    x = sample_correlated_design(DesignSpec(8, 0.9), 100, s_x)
    y = x[:, 1] - x[:, 4] + x[:, 7] + np.random.default_rng(s_e).standard_normal(100)
    # the oracle's centred-LAD duals of every size-3 support, as in sparse._se_objectives
    xt = (x - x.mean(axis=0)).T
    combos = np.array(list(itertools.combinations(range(8), 3)))
    yield "stack se-oracle d=8 k=3", solve_box_stack(y.mean() - y, -0.005, 0.005, xt[combos])
    rng = np.random.default_rng(11)
    a = rng.integers(-1, 2, size=(12, 3, 20)).astype(float)
    c = rng.integers(-2, 3, size=20).astype(float)
    yield "stack tied", solve_box_stack(c, -1.0, 1.0, a)
    a = rng.standard_normal((12, 3, 20))
    a[:, 2] = a[:, 0]  # a repeated row
    a[1::2, 1] = 0.0  # and an all-zero row
    yield "stack degenerate", solve_box_stack(a[0].T @ rng.standard_normal(3), -0.5, 0.5, a)
    yield "stack n <= k", solve_box_stack(rng.standard_normal(3), -1.0, 1.0,
                                          rng.standard_normal((6, 4, 3)))


def main() -> None:
    total = hashlib.sha256()
    for source in (_regression_duals, _portfolio_duals, _phase1_start, _box_walk,
                   _subset_relaxation, _mips, _searches, _stacks, _sweeps, _fit_chain):
        for name, sol in source():
            digest = _digest(sol)
            total.update(digest.encode())
            if isinstance(sol, list):  # equivalence_sweep rows
                phases = tuple(np.sum([row["lp_phase_iterations"] for row in sol], axis=0).tolist())
                errors = sum(bool(row["error"]) for row in sol)
                done = f"{len(sol)} points, {errors} errors, {phases}"
            elif isinstance(sol, dict):  # a fit chain's models by fit
                done = f"{len(sol)} fits"
            elif hasattr(sol, "crashed"):  # a StackSolution
                done = (f"{sol.iterations.size} LPs, {int(sol.iterations.sum())} steps, "
                        f"{int(sol.crashed.sum())} crashed")
            else:
                steps = getattr(sol, "phase_iterations", None) or f"{sol.nodes} nodes"
                done = f"{sol.status} {steps}"
            print(f"{name}: {done} {digest}")
    print(f"total: {total.hexdigest()}")


if __name__ == "__main__":
    main()
