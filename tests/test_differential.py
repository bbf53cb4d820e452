"""The fitters and the LP/MIP layer against HiGHS.

The library solves each fit as a compact bounded-column dual.  The fitter
tests build the textbook primal LP of the same fit as plain arrays, solve
it with HiGHS (``scipy.optimize.linprog``), and require the fitter's
certified objective to match the HiGHS optimal value.  Instances are seeded
and include tied, duplicated-atom and collinear data.

The generated tests draw a fixed count of small integer-grid LPs (feasible,
infeasible and unbounded by construction) and binary MIPs from fixed seeds,
and require ``solve_lp`` and ``solve_mip`` to agree with HiGHS on status,
objective and feasibility.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from quadlab.experiments import FOUR_ASSET_TARGET_MEAN, four_asset_returns
from quadlab.lp_core import LpProblem, simplex, solve_lp, solve_mip
from quadlab.portfolio import PortfolioProblem, optimize_cvar_dev, optimize_se_dev
from quadlab.regression import Dataset, fit_biased_mean, fit_quantile, fit_se

from conftest import highs_objective, highs_solve

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
        alpha = float(rng.uniform(0.3, 0.95))
        se_ref = highs_objective(**se_primal(problem, x)) - max(-x, 0.0)
        cvar_ref = highs_objective(**cvar_primal(problem, alpha))
        # from the default guess, then from a random budget-feasible one
        guess = rng.standard_normal(problem.m)
        guess += (1.0 - guess.sum()) / problem.m
        for start in (None, guess):
            se = optimize_se_dev(problem, x, start)
            if long_only:
                assert np.min(se.weights) >= -1e-8
            assert se.deviation == pytest.approx(se_ref, abs=ABS_TOL)
            cvar = optimize_cvar_dev(problem, alpha, start)
            assert cvar.deviation == pytest.approx(cvar_ref, abs=ABS_TOL)
            # the crash start holds on tied, duplicated and collinear data too
            assert se.lp.warm_used and cvar.lp.warm_used


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


# -- generated solve_lp and solve_mip instances -------------------------------

LP_COUNT = 120         # generated LPs per family
MIP_COUNT = 60         # generated binary MIPs
RELATIONS = np.array(["<=", "=", ">=", "free"])
BOXED, LOWER, UPPER, FREE_COLUMN, FIXED = range(5)


def _as_arrays(a, relations, rhs, lo, hi):
    """linprog's (A_ub, b_ub, A_eq, b_eq, bounds) for rows of the given relations."""
    le, ge, eq = relations == "<=", relations == ">=", relations == "="
    return dict(A_ub=np.vstack((a[le], -a[ge])), b_ub=np.concatenate((rhs[le], -rhs[ge])),
                A_eq=a[eq], b_eq=rhs[eq], bounds=list(zip(lo, hi)))


def generated_lp(rng, family):
    """(c, a, relations, rhs, lo, hi) of a small LP on an integer grid.

    Rows and bounds are drawn around an integer point x0, many of them
    tight there, so exact ties and degenerate vertices are common.  Every
    row relation and every bound kind (boxed, lower only, upper only, free,
    fixed) occurs.  ``feasible`` keeps x0 feasible.  ``infeasible`` then
    breaks a row: it asks for more than the box reaches, or contradicts an
    earlier row.  ``unbounded`` makes column l the negative of column k,
    both bounded below only, with c_k + c_l = -1: e_k + e_l is a ray.
    """
    m, n = int(rng.integers(1, 7)), int(rng.integers(2 if family == "unbounded" else 1, 9))
    a = rng.integers(-2, 3, (m, n)).astype(float)
    a[rng.random((m, n)) < 0.3] = 0.0
    c = rng.integers(-3, 4, n).astype(float)
    x0 = rng.integers(-2, 3, n).astype(float)
    kind = rng.integers(0, 5, n)
    if family == "unbounded":
        k, l = rng.choice(n, 2, replace=False)
        a[:, l] = -a[:, k]
        c[l] = -c[k] - 1.0
        kind[[k, l]] = LOWER
    lo = np.where(np.isin(kind, (BOXED, LOWER)), x0 - rng.integers(0, 3, n), -np.inf)
    hi = np.where(np.isin(kind, (BOXED, UPPER)), x0 + rng.integers(0, 3, n), np.inf)
    lo[kind == FIXED] = hi[kind == FIXED] = x0[kind == FIXED]
    relations = rng.choice(RELATIONS, m)
    slack = rng.integers(0, 3, m).astype(float)
    rhs = a @ x0 + np.select([relations == "<=", relations == ">=", relations == "free"],
                             [slack, -slack, rng.integers(-3, 4, m)], 0.0)
    if family == "infeasible":
        if m > 1 and rng.random() < 0.5:
            # the last row asks a.x >= b + 1 of an earlier row a.x <= b
            r = int(rng.integers(m - 1))
            relations[r], relations[-1] = "<=", ">="
            a[-1], rhs[-1] = a[r], rhs[r] + 1.0
        else:
            # row 0 asks for more than its columns reach inside their boxes
            used = a[0] != 0.0
            lo[used & ~np.isfinite(lo)] = x0[used & ~np.isfinite(lo)] - 1.0
            hi[used & ~np.isfinite(hi)] = x0[used & ~np.isfinite(hi)] + 1.0
            relations[0] = rng.choice(["=", ">="])
            rhs[0] = np.maximum(a[0, used] * lo[used], a[0, used] * hi[used]).sum() + 1.0
    return c, a, relations, rhs, lo, hi


def _lp_problem(c, a, relations, rhs, lo, hi):
    p = LpProblem(c.size)
    p.set_objective(c)
    p.set_bounds(slice(None), lo, hi)
    for r in range(a.shape[0]):
        p.add_row(a[r], str(relations[r]), float(rhs[r]))
    return p


def _assert_feasible(x, a, relations, rhs, lo, hi, tol=1e-8):
    """x within tol of every bound and every row."""
    assert np.all(x >= lo - tol) and np.all(x <= hi + tol)
    lhs = a @ x
    assert np.all(lhs[relations == "<="] <= rhs[relations == "<="] + tol)
    assert np.all(lhs[relations == ">="] >= rhs[relations == ">="] - tol)
    assert np.all(np.abs(lhs - rhs)[relations == "="] <= tol)


@pytest.fixture
def tie_calls(monkeypatch):
    """Counts ``solve_lp`` ratio tests that reach the multi-row tie rule."""
    calls = []
    rule = simplex.leaving_row

    def counted(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(simplex, "leaving_row", counted)
    return calls


@pytest.mark.parametrize("family", ["feasible", "infeasible", "unbounded"])
def test_generated_lps_match_highs(family, tie_calls):
    rng = np.random.default_rng({"feasible": 11, "infeasible": 12, "unbounded": 13}[family])
    statuses = []
    for _ in range(LP_COUNT):
        c, a, relations, rhs, lo, hi = generated_lp(rng, family)
        problem = _lp_problem(c, a, relations, rhs, lo, hi)
        sol = solve_lp(problem)
        status, value, _ = highs_solve(c, **_as_arrays(a, relations, rhs, lo, hi))
        assert sol.status == status
        if family != "feasible":
            assert status == family
        if status == "optimal":
            assert abs(sol.objective - value) <= 1e-7 * max(1.0, abs(value))
            _assert_feasible(sol.x, a, relations, rhs, lo, hi)
            # the reported reduced costs are the final basis's pricing
            recomputed = problem.objective - sol.duals @ problem.matrix
            assert np.max(np.abs(sol.reduced_costs - recomputed)) <= 1e-12
        statuses.append(status)
    if family == "feasible":
        assert statuses.count("optimal") >= LP_COUNT // 3
    # integer data ties rows in the ratio test often enough to reach the rule
    assert len(tie_calls) > 0


def test_generated_mips_match_highs(tie_calls):
    rng = np.random.default_rng(14)
    statuses = []
    for _ in range(MIP_COUNT):
        nb, nc, m = int(rng.integers(1, 7)), int(rng.integers(0, 3)), int(rng.integers(1, 5))
        n = nb + nc
        a = rng.integers(-3, 4, (m, n)).astype(float)
        c = rng.integers(-4, 5, n).astype(float)
        lo = np.concatenate((np.zeros(nb), -rng.integers(0, 3, nc)))
        hi = np.concatenate((np.ones(nb), rng.integers(0, 3, nc)))
        x0 = np.concatenate((rng.integers(0, 2, nb), rng.integers(lo[nb:], hi[nb:] + 1)))
        relations = rng.choice(RELATIONS[:3], m)
        # a negative slack can make a row infeasible for every binary choice
        slack = rng.integers(-1, 3, m).astype(float)
        rhs = a @ x0 + np.select([relations == "<=", relations == ">="], [slack, -slack], 0.0)
        p = _lp_problem(c, a, relations, rhs, lo, hi)
        p.mark_binary(np.arange(nb))
        sol = solve_mip(p, gap_tol=0.0)
        ref = milp(c, constraints=LinearConstraint(
            a, np.where(relations == "<=", -np.inf, rhs), np.where(relations == ">=", np.inf, rhs)),
            integrality=np.arange(n) < nb, bounds=Bounds(lo, hi))
        status = {0: "optimal", 2: "infeasible"}.get(ref.status)
        assert status is not None, ref.message
        assert sol.status == status
        if status == "optimal":
            assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
            _assert_feasible(sol.x, a, relations, rhs, lo, hi)
            assert np.all(np.abs(sol.x[:nb] - np.round(sol.x[:nb])) <= 1e-6)
        statuses.append(status)
    assert statuses.count("optimal") >= MIP_COUNT // 2 and "infeasible" in statuses
