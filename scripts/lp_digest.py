"""Print a SHA-256 over every ``LpSolution`` field of a fixed set of solves.

Run from the repository root, twice, in separate processes; identical
inputs must give identical output byte for byte:

    PYTHONPATH=src python3 scripts/lp_digest.py > lp_digest_1.out
    PYTHONPATH=src python3 scripts/lp_digest.py > lp_digest_2.out
    cmp lp_digest_1.out lp_digest_2.out

The set covers each start ``solve_lp`` takes: regression duals at n = 100
and 10,000 (pinball at two levels, each from the OLS crash, so through the
dual phase), the part-balancing and tail-average portfolio duals, a cold
start that needs phase 1, and a best-subset relaxation with freed rows
warm-started from its parent.  One line per solve, then the total.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from quadlab import regression
from quadlab.experiments import FOUR_ASSET_TARGET_MEAN, four_asset_returns
from quadlab.lp_core import LpProblem, LpSolution, solve_lp
from quadlab.portfolio import PortfolioProblem, optimize_cvar_dev, optimize_se_dev


def _digest(sol: LpSolution) -> str:
    """SHA-256 over every field: dtype, shape and bytes of arrays, exact bytes of floats."""
    h = hashlib.sha256()
    for f in dataclasses.fields(sol):
        value = getattr(sol, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
        elif isinstance(value, float):
            h.update(np.float64(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _regression_duals():
    for n in (100, 10_000):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        data = regression.Dataset(x[:, None], x + rng.standard_normal(n) ** 2)
        for level in (0.5, 0.9):
            ratio = level / (1.0 - level)
            problem, warm = regression._dual_problem(data, -1.0 / n, ratio / n, None,
                                                     split_level=level)
            yield f"regression n={n} level={level}", solve_lp(problem, warm=warm)


def _portfolio_duals():
    problem = PortfolioProblem(four_asset_returns(2000, 5), FOUR_ASSET_TARGET_MEAN)
    yield "portfolio se x=0.002", optimize_se_dev(problem, 0.002).lp
    yield "portfolio cvar alpha=0.9", optimize_cvar_dev(problem, 0.9).lp


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


def _subset_relaxation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 5))
    data = regression.Dataset(x, x @ np.array([1.0, 0.0, -2.0, 0.5, 0.0])
                              + rng.standard_normal(300))
    oracle = regression.SeSubsetOracle(data)
    _, root = oracle.relax((), (0, 1, 2, 3, 4), None)
    yield "subset root", root[2]
    _, child = oracle.relax((0,), (2,), root)  # rows of columns 1, 3 and 4 freed
    yield "subset child", child[2]


def main() -> None:
    total = hashlib.sha256()
    for source in (_regression_duals, _portfolio_duals, _phase1_start, _subset_relaxation):
        for name, sol in source():
            digest = _digest(sol)
            total.update(digest.encode())
            print(f"{name}: {sol.status} {sol.phase_iterations} {digest}")
    print(f"total: {total.hexdigest()}")


if __name__ == "__main__":
    main()
