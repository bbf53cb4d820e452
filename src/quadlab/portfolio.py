"""Scenario portfolio optimization under tail-deviation objectives.

Losses follow the convention X_i = -w . r_i, with a budget row sum(w) = 1
and a target-mean row E[-X] = mu.  Both objectives (part-balancing
deviation at bias x, and the alpha-tail-average deviation) are linear
programs whose natural formulation carries one row per scenario; the
module instead solves the bounded-column dual, whose basis stays
(assets+1)-sized, recovers the weights from the row multipliers, and then
re-evaluates the deviation exactly on the induced loss sample as a check.

The tail-average dual is the part-balancing dual plus the row sum(u) = 1:
its natural asset row r_j . u + b + rbar_j c = rbar_j (``<=`` when
long-only), less rbar_j times that row, is the part-balancing row
(r_j - rbar_j) . u + b + rbar_j c = 0, and a row operation leaves the asset
rows' multipliers, the weights, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import EmpiricalSample, make_sample
from .functionals import _alpha_open, _bias_of, cvar, pos_part_mean, probability_interval_at, var
from .lp_core import (LpError, LpProblem, LpSolution, certify_objective, crash_basis, crash_pool,
                      lower_share, solve_lp)

BUDGET_TOL = 1e-8
MEAN_TOL = 1e-7
THRESHOLD_RTOL = 1e-9


class InfeasibleTarget(LpError):
    """The target mean return cannot be met on the budget simplex."""


@dataclass(frozen=True, eq=False)
class PortfolioProblem:
    """Scenario return matrix (n x m), target mean, and sign policy.

    The constructor stores a read-only copy of ``returns``, so the caller's
    array stays writable and later writes to it do not reach the problem.
    That is what makes the cached ``mean_returns`` and scenario duals
    (``se_dual``, and ``cvar_dual``, a copy of its rows plus one) safe to
    reuse.  Each solve rewrites a dual's objective and scenario bounds, so
    one problem must not be solved from two threads at once.  Equality is
    identity: those caches belong to the instance.
    """

    returns: np.ndarray
    target_mean: float
    long_only: bool = False

    def __post_init__(self):
        r = np.array(self.returns, dtype=float)
        r.flags.writeable = False
        object.__setattr__(self, "returns", r)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 2:
            raise ValueError("returns must be n x m with m >= 2")
        if not np.all(np.isfinite(r)):
            raise ValueError("returns must be finite")
        if not np.isfinite(self.target_mean):
            raise ValueError("target mean must be finite")

    @property
    def n(self) -> int:
        return self.returns.shape[0]

    @property
    def m(self) -> int:
        return self.returns.shape[1]

    @cached_property
    def mean_returns(self) -> np.ndarray:
        """Each asset's mean return over the scenarios; read-only, built on first use."""
        rbar = self.returns.mean(axis=0)
        rbar.flags.writeable = False
        return rbar

    @cached_property
    def se_dual(self) -> LpProblem:
        """Rows of the part-balancing dual (see ``_solve_scenario_dual``), built on first use."""
        rows = np.column_stack(((self.returns - self.mean_returns).T, np.ones(self.m),
                                self.mean_returns))
        lp = LpProblem(self.n + 2)
        lp.add_rows(rows, "<=" if self.long_only else "=", 0.0)
        return lp

    @cached_property
    def cvar_dual(self) -> LpProblem:
        """Rows of the tail-average dual: ``se_dual``'s, then sum(u) = 1; built on first use."""
        lp = self.se_dual.copy()
        lp.add_row(np.concatenate((np.ones(self.n), [0.0, 0.0])), "=", 1.0)
        return lp


@dataclass(frozen=True, eq=False)
class PortfolioSolution:
    """One portfolio solve: its weights, loss sample, deviation and LP solution.

    ``objective`` is "se" (part-balancing) or "cvar" (tail-average) and
    ``param`` the solve's bias x or level alpha.  ``losses`` is the sample
    X = -w . r_i of the optimal ``weights``, ``deviation`` the objective
    re-evaluated exactly on it, and ``lp`` the scenario dual's solution.
    ``alpha_interval`` is computed on first read and cached; the sweep
    never reads it.  Equality is identity, as for ``PortfolioProblem``.
    """

    weights: np.ndarray
    losses: EmpiricalSample
    deviation: float
    objective: str
    param: float
    lp: LpSolution

    @cached_property
    def alpha_interval(self) -> tuple[float, float]:
        """The CDF jump of ``losses`` at the solve's threshold; it brackets the level.

        For "se" the threshold is x + E[X] (``map_x_to_alpha``), for "cvar"
        the loss quantile VaR-_alpha; atoms within ``_tie_band`` count as tied.
        """
        if self.objective == "se":
            return map_x_to_alpha(self.losses, self.param)
        quantile = var(self.losses, self.param).lower
        return probability_interval_at(self.losses, quantile, atol=_tie_band(self.losses.atoms))


def _loss_sample(returns: np.ndarray, weights: np.ndarray) -> EmpiricalSample:
    return make_sample(-(returns @ weights))


def _validate(problem: PortfolioProblem, weights: np.ndarray, losses: EmpiricalSample):
    if abs(weights.sum() - 1.0) > BUDGET_TOL:
        raise LpError(f"budget violated: sum(w) = {weights.sum()}")
    if abs(-losses.mean() - problem.target_mean) > MEAN_TOL:
        raise LpError(f"target mean missed: {-losses.mean()} vs {problem.target_mean}")
    if problem.long_only and np.min(weights) < -BUDGET_TOL:
        raise LpError("long-only violated")


def se_deviation_of(losses: EmpiricalSample, x) -> float:
    """Part-balancing deviation E[X - E[X] - x]_+ - x_- of a loss sample."""
    b = _bias_of(x)
    return pos_part_mean(losses, losses.mean() + b.x) - b.x_minus


def cvar_deviation_of(losses: EmpiricalSample, alpha) -> float:
    """Tail-average deviation CVaR_alpha(X) - E[X] of a loss sample."""
    return cvar(losses, alpha) - losses.mean()


def default_start(problem: PortfolioProblem) -> np.ndarray:
    """Weights of the lowest- and highest-mean assets alone that meet the
    budget and the target mean; equal means put all weight on asset 0."""
    rbar = problem.mean_returns
    lo, hi = int(np.argmin(rbar)), int(np.argmax(rbar))
    share = (problem.target_mean - rbar[lo]) / (rbar[hi] - rbar[lo]) if lo != hi else 0.0
    weights = np.zeros(problem.m)
    weights[hi] += share
    weights[lo] += 1.0 - share
    return weights


def scenario_crash(problem: PortfolioProblem, weights, threshold: float):
    """Scenario-dual start (at-cap mask, crash order) read off a portfolio guess.

    On the losses of the guess ``weights``, the scenarios above
    ``threshold`` start at their cap.  The crash order for ``crash_basis``
    lists the free budget and mean multipliers, the scenarios tied at the
    threshold (within the ``map_x_to_alpha`` band), the slacks of the asset
    rows whose weights are idle (|w| <= ``BUDGET_TOL``; asset j's is column
    n + 2 + j), then the lowest-loss scenarios above the threshold, as many
    as a crash of ``cvar_dual``'s m + 1 rows reads (``se_dual``'s, a prefix).
    """
    atoms = -(problem.returns @ weights)
    atol = _tie_band(atoms)
    above = atoms > threshold + atol
    tied = np.flatnonzero((atoms >= threshold - atol) & ~above)
    idle = problem.n + 2 + np.flatnonzero(np.abs(weights) <= BUDGET_TOL)
    tail = np.flatnonzero(above)
    nearest = tail[crash_pool(atoms[tail], problem.m + 1)]
    return above, np.concatenate(([problem.n, problem.n + 1], tied, idle, nearest))


def _solve_scenario_dual(problem: PortfolioProblem, lp: LpProblem, cost: float, cap: float,
                         start, threshold: float):
    """Solve ``lp``, the problem's cached ``se_dual`` or ``cvar_dual``.

    Columns are one multiplier per scenario in [0, cap] with cost ``cost``,
    then the free budget-row and target-mean-row multipliers (columns n and
    n + 1).  Every solve rewrites the whole objective and every scenario
    bound, so nothing carries over from an earlier one.  The start is
    ``scenario_crash(problem, start, threshold)``.  Returns the LP solution,
    the weights read off the multipliers of the first m rows, the asset
    rows, and the validated loss sample.
    """
    n, m = problem.n, problem.m
    lp.set_objective(np.concatenate((np.full(n, cost), [-1.0, -problem.target_mean])))
    lp.set_bounds(slice(0, n), 0.0, cap)
    crash = crash_basis(lp, *scenario_crash(problem, start, threshold))
    sol = solve_lp(lp, warm=crash, dual_tol=1e-12)
    if sol.status == "unbounded":
        raise InfeasibleTarget(f"target mean {problem.target_mean} unattainable")
    if sol.status != "optimal":
        raise LpError(f"portfolio LP ended with status {sol.status}")
    weights = -sol.duals[:m]
    losses = _loss_sample(problem.returns, weights)
    _validate(problem, weights, losses)
    return sol, weights, losses


def optimize_se_dev(problem: PortfolioProblem, x, start=None) -> PortfolioSolution:
    """Minimize the part-balancing deviation of the loss at bias x.

    Dual variables are one multiplier per scenario in [0, 1/n] constrained
    orthogonal (against centered returns) to each asset column; weights come
    off the asset-row multipliers.  The solve starts from the crash of the
    guess ``start`` (else ``default_start``) at the threshold x + E[X].
    """
    b = _bias_of(x)
    start = default_start(problem) if start is None else start
    sol, weights, losses = _solve_scenario_dual(
        problem, problem.se_dual, b.x, 1.0 / problem.n, start,
        b.x - float(problem.mean_returns @ start))
    deviation = se_deviation_of(losses, b)
    certify_objective(deviation, -float(sol.objective) - b.x_minus, "deviation")
    return PortfolioSolution(weights, losses, deviation, "se", b.x, sol)


def optimize_cvar_dev(problem: PortfolioProblem, alpha, start=None) -> PortfolioSolution:
    """Minimize the tail-average deviation of the loss at level alpha.

    Same dual rows with multipliers in [0, 1/((1-alpha) n)], plus one that
    makes them sum to 1.  The solve starts from the crash of the guess
    ``start`` (else ``default_start``) at the threshold VaR-_alpha of its
    losses.
    """
    start = default_start(problem) if start is None else start
    return _optimize_cvar(problem, alpha, start, _loss_sample(problem.returns, start))


def _optimize_cvar(problem: PortfolioProblem, alpha, start, start_losses: EmpiricalSample):
    a = _alpha_open(alpha)
    sol, weights, losses = _solve_scenario_dual(
        problem, problem.cvar_dual, 0.0, 1.0 / ((1.0 - a) * problem.n), start,
        var(start_losses, a).lower)
    deviation = cvar_deviation_of(losses, a)
    certify_objective(deviation, -float(sol.objective), "deviation")
    return PortfolioSolution(weights, losses, deviation, "cvar", a, sol)


def map_x_to_alpha(losses: EmpiricalSample, x) -> tuple[float, float]:
    """[P(X < x + E[X]), P(X <= x + E[X])] on the optimal loss sample.

    Atoms within a relative float-dust band of the threshold count as equal,
    which keeps solver-active scenarios inside the interval.
    """
    threshold = _bias_of(x).x + losses.mean()
    return probability_interval_at(losses, threshold, atol=_tie_band(losses.atoms))


def _tie_band(atoms: np.ndarray) -> float:
    """Half-width of the band within which a loss counts as tied with a threshold."""
    return THRESHOLD_RTOL * max(1.0, float(np.max(np.abs(atoms))))


def equivalence_sweep(returns, target_mean: float, x_grid, long_only: bool = False):
    """Cross-evaluate the two deviation objectives along a bias grid.

    For each x: solve the part-balancing problem, map the solution to the
    tail level its dual induces, alpha = 1 - sum(u) over the scenario
    multipliers u in [0, 1/n] (``lower_share``, the rule that sets
    ``LinearModel.equiv_alpha``; it lies in the solution's
    ``alpha_interval``), solve the tail-average problem there, and evaluate
    each objective at the other optimum.  At that level the part-balancing
    optimum is tail-average optimal too: its multipliers, scaled by
    1/(1 - alpha), are tail-average dual optimal.  The sweep never reads
    either solution's ``alpha_interval``, so neither is computed.  Solver
    failures are recorded per point and the sweep continues.

    No basis crosses solves.  Each part-balancing solve starts from the
    previous point's optimal weights; each tail-average solve from its own
    point's part-balancing weights, which by the equivalence of the two
    objectives are tail-average optimal at the mapped level, so it takes a
    few pivots.  Each row also reports the tail-average solve's
    ``cvar_iterations``, whether it started from its crash
    (``cvar_warm_used``), and whether it returned the part-balancing weights
    to within ``BUDGET_TOL`` (``cvar_kept_se_weights``), where the
    part-balancing cross-gap compares a portfolio with itself.  Every point
    re-solves the problem's two cached duals.  The point's two solves add
    up their ``LpSolution.phase_iterations`` in ``lp_phase_iterations`` and
    their ``bound_flips`` in ``lp_bound_flips``.
    """
    x_grid = list(x_grid)
    if not x_grid:
        raise ValueError("x grid must be nonempty")
    problem = PortfolioProblem(returns, target_mean, long_only)
    rows = []
    start = None
    for x in x_grid:
        row = {"x": float(x), "alpha": np.nan,
               "se_dev_opt": np.nan, "cvar_dev_at_se_opt": np.nan,
               "cvar_dev_opt": np.nan, "se_dev_at_cvar_opt": np.nan,
               "cvar_iterations": 0, "cvar_warm_used": False,
               "cvar_kept_se_weights": False, "lp_phase_iterations": (0, 0, 0),
               "lp_bound_flips": 0, "error": ""}
        try:
            se_sol = optimize_se_dev(problem, x, start)
            _add_lp_counts(row, se_sol.lp)
            start = se_sol.weights
            alpha = lower_share(se_sol.lp.x[:problem.n], 0.0, 1.0 / problem.n)
            row["se_dev_opt"] = se_sol.deviation
            row["alpha"] = alpha
            row["cvar_dev_at_se_opt"] = cvar_deviation_of(se_sol.losses, alpha)
            # the part-balancing loss sample's sorted view is already built
            cvar_sol = _optimize_cvar(problem, alpha, se_sol.weights, se_sol.losses)
            _add_lp_counts(row, cvar_sol.lp)
            row["cvar_iterations"] = cvar_sol.lp.iterations
            row["cvar_warm_used"] = cvar_sol.lp.warm_used
            row["cvar_kept_se_weights"] = bool(
                np.max(np.abs(cvar_sol.weights - se_sol.weights)) <= BUDGET_TOL)
            row["cvar_dev_opt"] = cvar_sol.deviation
            row["se_dev_at_cvar_opt"] = se_deviation_of(cvar_sol.losses, x)
        except (LpError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _add_lp_counts(row: dict, sol) -> None:
    row["lp_phase_iterations"] = tuple(
        a + b for a, b in zip(row["lp_phase_iterations"], sol.phase_iterations))
    row["lp_bound_flips"] += sol.bound_flips
