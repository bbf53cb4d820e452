"""Exact tail and quadrangle functionals on empirical samples.

Every maximum or minimum here is taken over an exact kink grid (atom values,
or cumulative probabilities of atoms), never by generic 1-d search: the
objectives are piecewise linear, so grid evaluation is exact up to float
rounding and supports 1e-10 identity checks.

Each sample is sorted once: ``EmpiricalSample.sorted_view`` caches the
distinct sorted atoms, their merged probabilities and the step CDF, and
builds the cumulative grid and the upper-tail sums on it when first read;
every kink grid here is read off that view.  ``var`` and ``cvar`` read only
the atoms and the CDF, so a portfolio loss sample, whose view shares its
problem's probabilities and, without ties, their CDF, costs one sort for
the tail average and its crash.  Tail and part means on the whole grid come
from prefix and suffix sums over it (Acerbi & Tasche 2002), so a grid of u
distinct atoms costs O(u) after the O(n log n) sort instead of one O(n)
pass per grid point.  ``pos_part_mean``, ``neg_part_mean`` and
``probability_interval_at`` stay direct O(n) sums: they are the independent
side of the identity checks.

Value-at-risk is interval-valued at plateaus and is returned as an interval
everywhere; callers that need a scalar take the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalSample

_TIE_TOL = 1e-11


@dataclass(frozen=True)
class VarInterval:
    """Lower/upper quantile pair; collapses to a point off plateaus."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("interval endpoints out of order")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class BiasParam:
    """Scalar bias x with its positive/negative parts."""

    x: float

    def __post_init__(self):
        if not np.isfinite(self.x):
            raise ValueError("bias must be finite")

    @property
    def x_plus(self) -> float:
        return max(0.0, self.x)

    @property
    def x_minus(self) -> float:
        return max(0.0, -self.x)


@dataclass(frozen=True)
class QuadrangleEval:
    """The five corner values of one quadrangle family at one parameter."""

    family: str
    param: float
    risk: float
    deviation: float
    regret: float
    error: float
    statistic: float
    statistic_interval: tuple[float, float] | None = None


def _alpha_of(alpha) -> float:
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return a


def _alpha_open(alpha) -> float:
    a = _alpha_of(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    return a


def _bias_of(x) -> BiasParam:
    return x if isinstance(x, BiasParam) else BiasParam(float(x))


def pos_part_mean(sample: EmpiricalSample, x: float) -> float:
    """E[X - x]_+ evaluated exactly."""
    return float(np.maximum(sample.atoms - x, 0.0) @ sample.probabilities)


def neg_part_mean(sample: EmpiricalSample, x: float) -> float:
    """E[X - x]_- = E[x - X]_+ evaluated exactly."""
    return float(np.maximum(x - sample.atoms, 0.0) @ sample.probabilities)


def probability_interval_at(sample: EmpiricalSample, t: float, atol: float = 0.0):
    """[P(X < t), P(X <= t)] as exact empirical fractions.

    ``atol`` widens the equality band: atoms within atol of t count as equal,
    which absorbs float dust on thresholds derived from solver output.
    """
    a, p = sample.atoms, sample.probabilities
    below = float(p[a < t - atol].sum())
    at_or_below = float(p[a <= t + atol].sum())
    return below, at_or_below


def var(sample: EmpiricalSample, alpha) -> VarInterval:
    """Quantile interval [VaR-, VaR+] at level alpha.

    VaR- is sup{x : F(x) < alpha} (essential infimum at alpha=0) and VaR+ is
    inf{x : F(x) > alpha} (essential supremum at alpha=1), both read off the
    step CDF directly.
    """
    a = _alpha_of(alpha)
    view = sample.sorted_view
    atoms, cdf = view.atoms, view.cdf
    if a <= 0.0:
        lower = atoms[0]
    else:
        lower = atoms[min(np.searchsorted(cdf, a - _TIE_TOL, side="left"), atoms.size - 1)]
    if a >= 1.0:
        upper = atoms[-1]
    else:
        upper = atoms[min(np.searchsorted(cdf, a + _TIE_TOL, side="right"), atoms.size - 1)]
    return VarInterval(float(lower), float(upper))


def cvar(sample: EmpiricalSample, alpha) -> float:
    """Tail average (1/(1-alpha)) * int_alpha^1 VaR-_beta dbeta, exactly.

    alpha=0 gives the mean; alpha=1 gives the largest atom.
    """
    a = _alpha_of(alpha)
    if a >= 1.0:
        return float(sample.atoms.max())
    view = sample.sorted_view
    # np.clip(cdf, a, 1) - np.clip(grid[:-1], a, 1), bit for bit: grid[1:] is
    # cdf and clip(grid[0] = 0) is a, so the lower ends are the clipped cdf
    # shifted one place, after a
    clipped = np.maximum(view.cdf, a)
    np.minimum(clipped, 1.0, out=clipped)
    frac = np.empty_like(clipped)
    frac[0] = clipped[0] - a
    np.subtract(clipped[1:], clipped[:-1], out=frac[1:])
    return float((view.atoms @ frac) / (1.0 - a))


def cvar_via_min(sample: EmpiricalSample, alpha):
    """Tail average through its minimization formula.

    Minimizes x + E[X - x]_+ / (1 - alpha) over the atom grid (the objective
    is piecewise linear with kinks only at atoms) and reports the minimizing
    interval, which equals the quantile interval.
    """
    a = _alpha_open(alpha)
    view = sample.sorted_view
    atoms, grid, tail = view.atoms, view.grid, view.tail
    # E[X - atom_j]_+ = tail_{j+1} - atom_j * (1 - F_j)
    surplus = tail[1:] - atoms * (1.0 - grid[1:])
    values = atoms + surplus / (1.0 - a)
    best = values.min()
    tol = _TIE_TOL * max(1.0, abs(best))
    hits = np.nonzero(values <= best + tol)[0]
    interval = VarInterval(float(atoms[hits[0]]), float(atoms[hits[-1]]))
    return float(best), interval


def superexpectation(sample: EmpiricalSample, x: float) -> float:
    """E[X - x]_+ + x."""
    return pos_part_mean(sample, float(x)) + float(x)


def superexpectation_dual(sample: EmpiricalSample, x: float):
    """Superexpectation through its conjugate maximization.

    Maximizes alpha*x + (1-alpha)*CVaR_alpha(X) over the exact kink grid of
    cumulative probabilities; the maximizer set is [P(X < x), P(X <= x)].
    """
    x = float(x)
    view = sample.sorted_view
    values = view.grid * x + view.tail
    best = float(values.max())
    below, at_or_below = probability_interval_at(sample, x)
    return best, (below, at_or_below)


def eval_quantile_quadrangle(sample: EmpiricalSample, alpha) -> QuadrangleEval:
    """Corner values of the quantile family at an interior level.

    Risk is the tail average, regret the scaled positive-part mean, and the
    error is the normalized pinball loss; the statistic is the quantile
    interval, reported as its midpoint with the interval attached.
    """
    a = _alpha_open(alpha)
    mean = sample.mean()
    risk = cvar(sample, a)
    pos = pos_part_mean(sample, 0.0)
    neg = neg_part_mean(sample, 0.0)
    regret = pos / (1.0 - a)
    error = (a / (1.0 - a)) * pos + neg
    interval = var(sample, a)
    return QuadrangleEval(
        family="quantile",
        param=a,
        risk=risk,
        deviation=risk - mean,
        regret=regret,
        error=error,
        statistic=interval.midpoint,
        statistic_interval=(interval.lower, interval.upper),
    )


def eval_biased_mean_quadrangle(sample: EmpiricalSample, x) -> QuadrangleEval:
    """Corner values of the biased-mean family at bias x.

    Deviation is E[X - E[X] - x]_+ - x_-, the error balances the
    negative/positive-part means max{E[X_-] - x_+, E[X_+] - x_-}, and the
    statistic is x + E[X].
    """
    b = _bias_of(x)
    mean = sample.mean()
    deviation = pos_part_mean(sample, mean + b.x) - b.x_minus
    error = max(neg_part_mean(sample, 0.0) - b.x_plus, pos_part_mean(sample, 0.0) - b.x_minus)
    return QuadrangleEval(
        family="biased_mean",
        param=b.x,
        risk=deviation + mean,
        deviation=deviation,
        regret=error + mean,
        error=error,
        statistic=b.x + mean,
    )


def eval_mean_l1_quadrangle(sample: EmpiricalSample) -> QuadrangleEval:
    """Zero-bias family written through the L1 norm.

    Deviation is half the mean absolute deviation and the error is
    0.5*E|X| + 0.5*|E[X]|; corner for corner this equals the biased-mean
    family at x = 0.
    """
    mean = sample.mean()
    abs_mean = float(np.abs(sample.atoms) @ sample.probabilities)
    deviation = 0.5 * float(np.abs(sample.atoms - mean) @ sample.probabilities)
    error = 0.5 * abs_mean + 0.5 * abs(mean)
    return QuadrangleEval(
        family="mean_l1",
        param=0.0,
        risk=deviation + mean,
        deviation=deviation,
        regret=error + mean,
        error=error,
        statistic=mean,
    )


def _biased_error_of_shifted(sample: EmpiricalSample, b: BiasParam, c: float) -> float:
    """max{E[(X-C)_-] - x_+, E[(X-C)_+] - x_-} for the shift C."""
    return max(neg_part_mean(sample, c) - b.x_plus, pos_part_mean(sample, c) - b.x_minus)


def error_projection(sample: EmpiricalSample, x):
    """Minimize the biased-mean error of X - C over C on the exact grid.

    Candidates are the atom values (the kinks) plus x + E[X]; the minimum is
    attained at C = x + E[X] with value equal to the deviation corner.  On
    flat stretches the x + E[X] point is preferred among ties.  The centre is
    evaluated directly; the atoms a_j all at once from prefix and suffix sums,
    E[(X-a_j)_-] = a_j P(X < a_j) - E[X; X < a_j] and
    E[(X-a_j)_+] = E[X; X > a_j] - a_j P(X > a_j).
    """
    b = _bias_of(x)
    center = b.x + sample.mean()
    center_value = _biased_error_of_shifted(sample, b, center)
    view = sample.sorted_view
    atoms, grid, tail = view.atoms, view.grid, view.tail
    below = np.concatenate(([0.0], (atoms * view.probabilities).cumsum()[:-1]))
    neg = atoms * grid[:-1] - below
    pos = tail[1:] - atoms * (1.0 - grid[1:])
    values = np.maximum(neg - b.x_plus, pos - b.x_minus)
    best = min(values.min(), center_value)
    tol = _TIE_TOL * max(1.0, abs(best))
    if center_value <= best + tol:
        return float(center), float(center_value)
    return float(atoms[int(values.argmin())]), float(best)


def quadrangle_relation_check(sample: EmpiricalSample, x) -> np.ndarray:
    """Residuals of the four identities tying the biased-mean and quantile families.

    Each right-hand side is a maximum over alpha in [0, 1] of a piecewise
    linear expression in the quantile corners; kinks sit at the cumulative
    probabilities, so grid evaluation is exact.  Returns |lhs - rhs| for
    (risk, deviation, regret, error).
    """
    b = _bias_of(x)
    lhs = eval_biased_mean_quadrangle(sample, b)
    mean = sample.mean()
    view = sample.sorted_view
    grid, tail = view.grid, view.tail
    one_minus = 1.0 - grid
    pos = pos_part_mean(sample, 0.0)
    neg = neg_part_mean(sample, 0.0)

    # (1-alpha)*CVaR_alpha(X) = tail expectation at the grid point.
    risk_rhs = np.max(tail - one_minus * b.x_plus + grid * (mean - b.x_minus))
    dev_rhs = np.max(tail - one_minus * mean - one_minus * b.x_plus - grid * b.x_minus)
    regret_rhs = np.max(pos - one_minus * b.x_plus + grid * (mean - b.x_minus))
    err_rhs = np.max(grid * pos + one_minus * neg - one_minus * b.x_plus - grid * b.x_minus)

    return np.array([
        abs(lhs.risk - risk_rhs),
        abs(lhs.deviation - dev_rhs),
        abs(lhs.regret - regret_rhs),
        abs(lhs.error - err_rhs),
    ])


def subregularity_probe(sample: EmpiricalSample, x):
    """Positive scaling at which the biased-mean error becomes strictly positive.

    Returns lambda = 1 when the error is already positive.  In the two flat
    cases (one-sided sample absorbed by the bias) the scaling
    |x| / E[active part] + 1 restores strict positivity.
    """
    b = _bias_of(x)
    if float(np.max(np.abs(sample.atoms))) == 0.0:
        raise ValueError("sample is identically zero")
    err = eval_biased_mean_quadrangle(sample, b).error
    if err > 0.0:
        return 1.0, float(err)
    pos = pos_part_mean(sample, 0.0)
    neg = neg_part_mean(sample, 0.0)
    if b.x > 0.0 and pos == 0.0:
        lam = b.x / neg + 1.0
    elif b.x < 0.0 and neg == 0.0:
        lam = -b.x / pos + 1.0
    else:
        # err = 0 with x = 0 forces a zero sample, excluded above.
        raise AssertionError("unreachable flat case")
    scaled = EmpiricalSample(lam * sample.atoms, sample.probabilities)
    scaled_err = eval_biased_mean_quadrangle(scaled, b).error
    return float(lam), float(scaled_err)
