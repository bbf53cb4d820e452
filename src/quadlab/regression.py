"""Linear regression under squared, pinball, and part-balancing errors.

The pinball (quantile) and part-balancing (biased-mean) fits are linear
programs.  Their row counts grow with the sample, so the fitters solve the
equivalent bounded-column dual and read the coefficients off the row
multipliers.  The pinball dual's basis is (d+1)-sized; the part-balancing
dual (``se_dual``) is centred and intercept-free, so its basis is d-sized.
Optimality of the stated primal is certified by recomputing the objective
from the residuals and matching the LP value.  ``SeSubsetOracle`` keeps one
zero-bias dual for the best-subset search and fits column subsets on it by
freeing rows.  ``se_lp_problem`` is the literal zero-bias primal with one part variable per observation;
the sparse module's big-M MILP embeds it.

Identity used throughout for the biased-mean error with bias x:
max{E[Z_-] - x_+, E[Z_+] - x_-} = (E|Z| - |x|)/2 + |E[Z] + x|/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functionals import _bias_of, _alpha_open
from .lp_core import (LpError, LpProblem, certify_objective, crash_basis, crash_pool, lower_share,
                      solve_lp)

ZERO_RESIDUAL_RTOL = 1e-11
CUTOFF_MARGIN = 1e-15  # relative rounding margin below a subset relaxation's cutoff
MAX_PINBALL_LEVEL = 1.0 - 1e-6  # 0.999999: the highest level ``fit_quantile`` takes


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix (one observation per row) and response vector.

    Both are stored as read-only copies, so no later write to the caller's
    arrays reaches ``ols_coefficients``, which every fit reads.  Equality is
    identity: the cached fit belongs to the instance.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = np.array(self.design, dtype=float)
        response = np.array(self.response, dtype=float)
        design.flags.writeable = False
        response.flags.writeable = False
        if design.ndim != 2:
            raise ValueError("design must be 2-d (n x d)")
        if response.ndim != 1 or response.size != design.shape[0]:
            raise ValueError("response length must match design rows")
        if design.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(response))):
            raise ValueError("data must be finite")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]

    @cached_property
    def ols_coefficients(self) -> tuple[np.ndarray, bool]:
        """([intercept, coefficients], regularized) of ``fit_ols``; read-only, built on first use."""
        full = _with_intercept(self.design)
        gram = full.T @ full
        rhs = full.T @ self.response
        try:
            chol = np.linalg.cholesky(gram)
            beta, regularized = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs)), False
        except np.linalg.LinAlgError:
            bump = 1e-10 * np.trace(gram) / gram.shape[0]
            beta, regularized = np.linalg.solve(gram + bump * np.eye(gram.shape[0]), rhs), True
        beta.flags.writeable = False
        return beta, regularized


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor f(x) = intercept + coefficients . x.

    ``equiv_alpha``, which the part-balancing fitters always set, is the
    pinball level at which the same coefficients are exactly optimal: the
    share of the dual multipliers u_i in [-h, h] at their lower end,
    sum_i (h - u_i)/(2h) / n clamped to [0, 1], with each u_i within the
    simplex's feasibility tolerance of an end taken at it
    (``lp_core.lower_share``); it lies inside the induced residual-sign
    interval.
    """

    intercept: float
    coefficients: np.ndarray
    regularized: bool = False
    objective: float | None = None
    equiv_alpha: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(coeffs))):
            raise ValueError("model parameters must be finite")

    def predict(self, design: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        return self.intercept + design @ self.coefficients


@dataclass(frozen=True)
class Residuals:
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))


def residuals(model: LinearModel, data: Dataset) -> Residuals:
    return Residuals(data.response - model.predict(data.design))


def kb_error(z: np.ndarray, alpha: float) -> float:
    """Normalized pinball loss E[(alpha/(1-alpha)) z_+ + z_-]."""
    a = alpha / (1.0 - alpha)
    return float(np.mean(a * np.maximum(z, 0.0) + np.maximum(-z, 0.0)))


def se_error(z: np.ndarray, x=0.0) -> float:
    """Part-balancing error max{E[z_-] - x_+, E[z_+] - x_-}."""
    b = _bias_of(x)
    return max(float(np.mean(np.maximum(-z, 0.0))) - b.x_plus,
               float(np.mean(np.maximum(z, 0.0))) - b.x_minus)


def induced_alpha(res: Residuals):
    """[P(z < 0), P(z <= 0)] as exact empirical fractions.

    Residuals within ``ZERO_RESIDUAL_RTOL * max(1, |z|_inf)`` of zero count
    as zero: LP vertices interpolate observations exactly in exact
    arithmetic but carry float dust in practice.
    """
    z = res.z
    atol = ZERO_RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(z), initial=0.0)))
    below = float(np.mean(z < -atol))
    at_or_below = float(np.mean(z <= atol))
    return below, at_or_below


# -- ordinary least squares -------------------------------------------------

def fit_ols(data: Dataset) -> LinearModel:
    """Least squares by normal equations; ridge fallback on rank deficiency.

    The fallback adds 1e-10 * trace(G)/dim to the Gram diagonal and flags
    the model as regularized instead of failing.
    """
    beta, regularized = data.ols_coefficients
    z = data.response - _with_intercept(data.design) @ beta
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:].copy(),
                       regularized=regularized, objective=float(np.mean(z * z)))


def _with_intercept(design: np.ndarray) -> np.ndarray:
    """[1 | X]: a column of ones, then the design."""
    return np.hstack((np.ones((design.shape[0], 1)), design))


# -- compact dual LPs for the piecewise-linear fits ---------------------------

def se_dual(data: Dataset, x=0.0):
    """The centred part-balancing dual at bias x: (cost, h, rows).

    With the intercept at the statistic, c0 = mean(y - X c) + x, the error
    is 1/2 mean|y~ - x - X~ c| - |x|/2 on centred data y~, X~.  That L1 fit
    has the dual min cost.u s.t. rows u = 0, |u_i| <= h, with
    cost = -(y~ - x), h = 1/(2n) and rows = X~^T, one per column; the row
    duals are the negated coefficients.  The fitters and ``SeSubsetOracle``
    solve it as an ``LpProblem``, the exhaustive oracle in stacked chunks.
    """
    y = data.response - data.response.mean()
    return -(y - x), 0.5 / data.n, (data.design - data.design.mean(axis=0)).T


def _boxed_dual(cost, lo: float, hi: float, rows, r):
    """min cost.u over lo <= u_i <= hi with rows u = 0, and its crash from residuals r.

    The crash's basic columns are the observations with residuals nearest
    zero, by (distance, index), less any ``crash_basis`` skips as dependent
    (an all-zero or repeated row keeps its slack); every other multiplier
    starts at the bound its residual's sign picks.  That start is primal
    infeasible with every nonbasic boxed, so ``solve_lp`` runs its
    bound-flipping dual phase: at n = 10,000 a fit takes a few long steps
    that flip a few dozen multipliers.  Returns (problem, warm).
    """
    problem = LpProblem(cost.size)
    problem.set_objective(cost)
    problem.set_bounds(slice(0, cost.size), lo, hi)
    problem.add_rows(rows, "=", 0.0)
    return problem, crash_basis(problem, r > 0, crash_pool(np.abs(r), problem.num_rows))


def _se_problem(data: Dataset, x=0.0):
    """The ``se_dual`` LP, crashed at the centred OLS residuals less x."""
    cost, h, rows = se_dual(data, x)
    r = -cost - rows.T @ data.ols_coefficients[0][1:]
    return _boxed_dual(cost, -h, h, rows, r)


def _dual_problem(data: Dataset, lam_lo: float, lam_hi: float, split_level: float):
    """The pinball dual: multipliers in [lam_lo, lam_hi] orthogonal to [1 | X].

    Row 0 is the intercept's, row 1 + j column j's; the row duals are the
    negated fit.  The crash splits the OLS residuals at ``split_level``.
    """
    beta, _ = data.ols_coefficients
    z = data.response - (float(beta[0]) + data.design @ beta[1:])  # the OLS residuals
    rows = np.ones((data.d + 1, data.n))  # [1; X^T]: the intercept's row first
    rows[1:] = data.design.T
    return _boxed_dual(-data.response, lam_lo, lam_hi, rows,
                       z - _split_threshold(z, split_level))


def _split_threshold(z: np.ndarray, level: float) -> float:
    """``np.quantile(z, level)`` bit for bit, by one partition of z.

    The default (linear) quantile sits at position (n - 1) * level of the
    sorted sample and interpolates between its two neighbours as numpy's
    ``_lerp`` does: from the lower one below the midpoint, from the upper
    one at or above it.  The partition places the lower neighbour; the
    upper one is the least entry after it, which a one-index partition
    finds faster than a partition at both.
    """
    position = (z.size - 1) * level
    low = int(position)
    if low >= z.size - 1:
        return float(z.max())
    part = np.partition(z, low)
    a, b = float(part[low]), float(part[low + 1:].min())
    t = position - low
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _solve_dual(problem: LpProblem, warm, n: int, cutoff: float | None = None):
    sol = solve_lp(problem, warm=warm, max_iterations=60_000 + 30 * n, cutoff=cutoff)
    if sol.status not in ("optimal", "cutoff"):
        raise LpError(f"regression LP ended with status {sol.status}")
    return sol


class SeSubsetOracle:
    """Zero-bias part-balancing errors on column subsets, for the subset search.

    The centred dual of ``fit_se`` (``se_dual``, row j for column j) is
    built once.  Fitting on a subset of the columns keeps that subset's rows
    as equalities and frees the other rows, which pins the left-out
    coefficients at zero (a free row's dual, the negated coefficient, is
    zero).  Freeing rows only relaxes the dual, so the optimal basis of a
    column set stays primal feasible for any subset of it, and a fit
    warm-started from it goes straight to phase 2.

    A node is (sorted columns, error, dual solution).  ``relax`` fits a
    column set warm-started from the given parent node, or from the OLS
    crash of ``fit_se`` without one, and returns the parent itself for its
    own column set; ``branch_values`` reads the fitted coefficients of the
    free columns off the node's row duals.  ``objective`` is ``fit_se`` on
    the leaf's columns: from a parent of up to d columns it would cost more.
    ``leaf_fit`` keeps each leaf's fit by its sorted support, so neither a
    leaf scored twice nor the incumbent's final model costs a second fit.

    ``relax`` takes the search's prune threshold as ``cutoff``.  The dual
    is a maximization solved as min -y.u, so ``solve_lp`` gets the
    threshold negated and lowered by a rounding margin of CUTOFF_MARGIN *
    max(1, |threshold|).  Phase 2 stops once its iterate's error, a lower
    bound on the node's by weak duality, passes the threshold by that
    margin.  The node's exact error is then past the threshold as well, so
    the search would drop the node anyway; the cut node (status
    ``cutoff``, no duals) reports the error reached, which is past the
    threshold, so it is dropped and never branched on.
    """

    def __init__(self, data: Dataset):
        self.problem, self.crash = _se_problem(data)
        self.data = data
        self._leaf_fits: dict[tuple[int, ...], LinearModel] = {}

    def _node(self, columns, parent, threshold=None):
        key = tuple(sorted(columns))
        if parent is not None and parent[0] == key:
            return parent
        self.problem.set_relation(slice(0, None), "free")
        self.problem.set_relation(np.asarray(key, dtype=np.intp), "=")
        start = self.crash if parent is None else (parent[2].basis, parent[2].vstate)
        cutoff = (None if threshold is None
                  else -threshold - CUTOFF_MARGIN * max(1.0, abs(threshold)))
        sol = _solve_dual(self.problem, start, self.data.n, cutoff)
        return key, -float(sol.objective), sol

    def relax(self, included, free, parent, cutoff=None):
        node = self._node(included + free, parent, cutoff)
        return node[1], node

    def branch_values(self, included, free, node):
        return -node[2].duals[np.asarray(free, dtype=np.intp)]

    def objective(self, support) -> float:
        return self.leaf_fit(support).objective

    def leaf_fit(self, support) -> LinearModel:
        """``fit_se`` on the columns of ``support`` in ascending order, fit once per support."""
        key = tuple(sorted(support))
        fit = self._leaf_fits.get(key)
        if fit is None:
            fit = fit_se(Dataset(self.data.design[:, list(key)], self.data.response))
            self._leaf_fits[key] = fit
        return fit


def fit_quantile(data: Dataset, alpha) -> LinearModel:
    """Pinball-loss fit at an interior level.

    The split-residual LP minimizes (1/n) sum[(alpha/(1-alpha)) z_+ + z_-];
    its dual has multipliers in [-1/n, alpha/((1-alpha) n)] orthogonal to
    the design, and is what actually gets solved.

    A level above MAX_PINBALL_LEVEL raises ``ValueError`` before any work.
    There the weight alpha/(1-alpha) passes 1e6, and the rounding in the
    residuals, so weighted, can outgrow the objective's certification:
    seeded draws first fail it at 1 - alpha = 2^-22, and a level within
    ulps of 1 puts the dual's box near 1e16/n.
    """
    a = _alpha_open(alpha)
    if a > MAX_PINBALL_LEVEL:
        raise ValueError(f"alpha must be at most {MAX_PINBALL_LEVEL!r} for a pinball fit, "
                         f"got {a!r}")
    ratio = a / (1.0 - a)
    problem, warm = _dual_problem(data, -1.0 / data.n, ratio / data.n, a)
    sol = _solve_dual(problem, warm, data.n)
    c0, coeffs = -float(sol.duals[0]), -sol.duals[1:]
    z = data.response - c0 - data.design @ coeffs
    obj = kb_error(z, a)
    certify_objective(obj, -float(sol.objective), "pinball objective")
    return LinearModel(intercept=c0, coefficients=coeffs, objective=obj)


def fit_biased_mean(data: Dataset, x) -> LinearModel:
    """Part-balancing fit: minimize max{E[z_-] - x_+, E[z_+] - x_-}.

    Solves ``se_dual`` at bias x for the slopes c and sets the intercept at
    the statistic, c0 = mean(y) - mean(X).c + x, optimal for any slopes, so
    the residual mean is -x.  The objective is certified against the LP
    value less |x|/2.
    """
    b = _bias_of(x)
    problem, warm = _se_problem(data, b.x)
    sol = _solve_dual(problem, warm, data.n)
    coeffs = -sol.duals
    c0 = float(data.response.mean() - data.design.mean(axis=0) @ coeffs) + b.x
    z = data.response - c0 - data.design @ coeffs
    obj = se_error(z, b)
    certify_objective(obj, -float(sol.objective) - 0.5 * abs(b.x), "part-balancing objective")
    mean_gap = abs(float(np.mean(z)) + b.x)
    if mean_gap > 1e-7:
        raise LpError(f"residual mean misses -x by {mean_gap}")
    h = problem.upper[0]
    return LinearModel(intercept=c0, coefficients=coeffs, objective=obj,
                       equiv_alpha=lower_share(sol.x, -h, h))


def fit_se(data: Dataset) -> LinearModel:
    """Zero-bias part-balancing fit, the LP counterpart of least squares.

    Identical to ``fit_biased_mean`` at x = 0; residuals average to zero and
    the optimal value equals half the mean absolute residual.
    """
    return fit_biased_mean(data, 0.0)


# -- literal primal formulation -----------------------------------------------

def se_lp_problem(data: Dataset):
    """Epigraph LP for the zero-bias fit with one part variable per row.

    Variables [c0, c(1..d), t, u(1..n)]: minimize t subject to
    t >= mean(u), t >= mean(u) - mean(z), u >= 0, u_i >= z_i.
    Returns (problem, index map).
    """
    n, d = data.n, data.d
    num = d + 2 + n
    idx_c0, idx_c, idx_t = 0, np.arange(1, d + 1), d + 1
    idx_u = np.arange(d + 2, d + 2 + n)
    problem = LpProblem(num)
    obj = np.zeros(num)
    obj[idx_t] = 1.0
    problem.set_objective(obj)
    problem.set_bounds(idx_u, 0.0, None)

    rows = np.zeros((n + 2, num))
    rows[:2, idx_t] = 1.0
    rows[:2, idx_u] = -1.0 / n
    # t - mean(u) + mean(z) >= 0 with mean(z) = ybar - c0 - c . xbar
    rows[1, idx_c0] = -1.0
    rows[1, idx_c] = -data.design.mean(axis=0)
    # u_i + c0 + c . x_i >= y_i, one row per observation
    rows[2:, idx_c0] = 1.0
    rows[2:, idx_c] = data.design
    rows[2:, idx_u] = np.eye(n)
    problem.add_rows(rows, ">=", np.concatenate(([0.0, -float(data.response.mean())],
                                                 data.response)))
    index = {"c0": idx_c0, "c": idx_c, "t": idx_t, "u": idx_u}
    return problem, index

