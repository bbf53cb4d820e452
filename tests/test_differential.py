"""The fitters against HiGHS on the literal primal LPs.

The library solves each fit as a compact bounded-column dual.  Each test
here builds the textbook primal LP of the same fit as plain arrays, solves
it with HiGHS (``scipy.optimize.linprog``), and requires the fitter's
certified objective to match the HiGHS optimal value.  Instances are seeded
and include tied, duplicated-atom and collinear data.
"""

import numpy as np
import pytest

from quadlab.experiments import FOUR_ASSET_TARGET_MEAN, four_asset_returns
from quadlab.portfolio import PortfolioProblem, optimize_cvar_dev, optimize_se_dev
from quadlab.regression import Dataset, fit_biased_mean, fit_quantile, fit_se

from conftest import highs_objective

ABS_TOL = 1e-9
KINDS = ("random", "tied", "duplicated", "collinear")
FREE, NONNEG = (None, None), (0.0, None)


# -- instances ----------------------------------------------------------------

def regression_data(rng, kind):
    """A seeded regression sample of the given kind, n in [8, 60)."""
    n = int(rng.integers(8, 60))
    d = int(rng.integers(0 if kind == "random" else 2, 4))
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) + rng.standard_normal(n)
    if kind == "tied":
        # integer grids: many equal responses and residuals
        x, y = np.round(x), np.round(y)
    elif kind == "duplicated":
        # observations repeated: duplicated atoms in the residual sample
        pick = rng.integers(0, n // 3, n)
        x, y = x[pick], y[pick]
    elif kind == "collinear":
        # a duplicated direction, and a column parallel to the intercept
        x[:, 1] = 2.0 * x[:, 0]
        x = np.column_stack((x, np.full(n, 1.5)))
    return Dataset(x, y)


def portfolio_problem(rng, kind, long_only):
    """A seeded scenario set of the given kind; the target is the mean asset mean."""
    n, m = int(rng.integers(20, 80)), int(rng.integers(3, 6))
    r = (rng.uniform(0.0002, 0.002, m) + 0.02 * rng.standard_normal((n, m))
         + 0.01 * rng.standard_normal((n, 1)))
    if kind == "tied":
        r = np.round(r, 2)
    elif kind == "duplicated":
        r = r[rng.integers(0, n // 3, n)]
    elif kind == "collinear":
        r[:, 1] = r[:, 0]  # two identical assets
    return PortfolioProblem(r, float(r.mean(axis=0).mean()), long_only)


# -- literal primals as arrays ------------------------------------------------

def pinball_primal(data, alpha):
    """Split-residual LP over [c0, c, p, q]:

    min (1/n) sum[(alpha/(1-alpha)) p_i + q_i]  s.t.  c0 + c.x_i + p_i - q_i = y_i,
    p, q >= 0.
    """
    n, d = data.n, data.d
    eye = np.eye(n)
    cost = np.concatenate((np.zeros(d + 1), np.full(n, alpha / (1.0 - alpha) / n),
                           np.full(n, 1.0 / n)))
    return dict(c=cost, A_eq=np.hstack((np.ones((n, 1)), data.design, eye, -eye)),
                b_eq=data.response, bounds=[FREE] * (d + 1) + [NONNEG] * (2 * n))


def epigraph_primal(data, x):
    """Epigraph LP with part variables over [c0, c, t, p, q]:

    min t  s.t.  t >= mean(q) - x_+,  t >= mean(p) - x_-,  p_i >= z_i,  q_i >= -z_i,
    p, q >= 0, where z_i = y_i - c0 - c.x_i.
    """
    n, d = data.n, data.d
    fit = np.hstack((np.ones((n, 1)), data.design, np.zeros((n, 1))))
    eye, zero = np.eye(n), np.zeros((n, n))
    head = np.zeros((2, d + 2))
    head[:, -1] = -1.0
    mean = np.full(n, 1.0 / n)
    a_ub = np.vstack((
        np.hstack((head, [np.zeros(n), mean], [mean, np.zeros(n)])),
        np.hstack((-fit, -eye, zero)),  # p_i >= z_i
        np.hstack((fit, zero, -eye)),   # q_i >= -z_i
    ))
    b_ub = np.concatenate(([max(x, 0.0), max(-x, 0.0)], -data.response, data.response))
    cost = np.zeros(d + 2 + 2 * n)
    cost[d + 1] = 1.0
    return dict(c=cost, A_ub=a_ub, b_ub=b_ub, bounds=[FREE] * (d + 2) + [NONNEG] * (2 * n))


def _weight_rows(problem, width):
    """Budget and target-mean rows over the weights, then ``width`` zero columns."""
    rbar = problem.returns.mean(axis=0)
    a_eq = np.hstack((np.vstack((np.ones(problem.m), rbar)), np.zeros((2, width))))
    return a_eq, [1.0, problem.target_mean]


def se_primal(problem, x):
    """One row per scenario over [w, v]:

    min mean(v)  s.t.  (r_i - rbar).w + v_i >= -x,  v >= 0,  budget,  target mean;
    its value less x_- is the part-balancing deviation.
    """
    r, n, m = problem.returns, problem.n, problem.m
    a_eq, b_eq = _weight_rows(problem, n)
    weight = NONNEG if problem.long_only else FREE
    return dict(c=np.concatenate((np.zeros(m), np.full(n, 1.0 / n))),
                A_ub=np.hstack((r.mean(axis=0) - r, -np.eye(n))), b_ub=np.full(n, x),
                A_eq=a_eq, b_eq=b_eq, bounds=[weight] * m + [NONNEG] * n)


def cvar_primal(problem, alpha):
    """One row per scenario over [w, zeta, v]:

    min rbar.w + zeta + (1/((1-alpha) n)) sum v  s.t.  r_i.w + zeta + v_i >= 0,
    v >= 0,  budget,  target mean; its value is the tail-average deviation.
    """
    r, n, m = problem.returns, problem.n, problem.m
    a_eq, b_eq = _weight_rows(problem, 1 + n)
    weight = NONNEG if problem.long_only else FREE
    cost = np.concatenate((r.mean(axis=0), [1.0], np.full(n, 1.0 / ((1.0 - alpha) * n))))
    return dict(c=cost, A_ub=-np.hstack((r, np.ones((n, 1)), np.eye(n))), b_ub=np.zeros(n),
                A_eq=a_eq, b_eq=b_eq, bounds=[weight] * m + [FREE] + [NONNEG] * n)


# -- regression fits ----------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_fit_quantile_matches_highs(rng, kind):
    for _ in range(6):
        data = regression_data(rng, kind)
        alpha = float(rng.uniform(0.1, 0.9))
        got = fit_quantile(data, alpha).objective
        assert got == pytest.approx(highs_objective(**pinball_primal(data, alpha)), abs=ABS_TOL)


@pytest.mark.parametrize("kind", KINDS)
def test_fit_biased_mean_matches_highs(rng, kind):
    for _ in range(6):
        data = regression_data(rng, kind)
        x = float(rng.uniform(-0.5, 0.5))
        for got, bias in ((fit_biased_mean(data, x), x), (fit_se(data), 0.0)):
            ref = highs_objective(**epigraph_primal(data, bias))
            assert got.objective == pytest.approx(ref, abs=ABS_TOL)


# -- portfolio objectives -----------------------------------------------------

@pytest.mark.parametrize("long_only", [False, True], ids=["long_short", "long_only"])
@pytest.mark.parametrize("kind", KINDS)
def test_portfolio_objectives_match_highs(rng, kind, long_only):
    for _ in range(4):
        problem = portfolio_problem(rng, kind, long_only)
        x = float(rng.uniform(-0.001, 0.01))
        se = optimize_se_dev(problem, x)
        if long_only:
            assert np.min(se.weights) >= -1e-8
        ref = highs_objective(**se_primal(problem, x)) - max(-x, 0.0)
        assert se.deviation == pytest.approx(ref, abs=ABS_TOL)
        alpha = float(rng.uniform(0.3, 0.95))
        ref = highs_objective(**cvar_primal(problem, alpha))
        assert optimize_cvar_dev(problem, alpha).deviation == pytest.approx(ref, abs=ABS_TOL)


def test_fig1_sweep_miss_point_matches_highs():
    # fig1_sweep at seed 3, n = 400, x = 0 misses its 1e-5 cross-gaps at the
    # mapped level alpha = 0.505; both LPs there are solved right, so the
    # miss lies in the level mapping, not in the solves
    problem = PortfolioProblem(four_asset_returns(400, 3), FOUR_ASSET_TARGET_MEAN)
    se = optimize_se_dev(problem, 0.0)
    alpha = se.alpha_interval[1]
    assert alpha == pytest.approx(0.505, abs=1e-12)
    assert se.deviation == pytest.approx(highs_objective(**se_primal(problem, 0.0)),
                                         abs=ABS_TOL)
    cvar = optimize_cvar_dev(problem, alpha)
    assert cvar.deviation == pytest.approx(highs_objective(**cvar_primal(problem, alpha)),
                                           abs=ABS_TOL)
