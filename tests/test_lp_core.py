import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from quadlab import portfolio, regression
from quadlab.experiments import FOUR_ASSET_TARGET_MEAN, ExperimentConfig, four_asset_returns
from quadlab.lp_core import (
    Incumbent,
    LpError,
    LpIndexError,
    LpProblem,
    LpSolution,
    SingularBasisError,
    StackError,
    StackLimitError,
    StackStallError,
    best_first,
    certify_objective,
    crash_basis,
    lower_share,
    solve_box_stack,
    solve_lp,
    solve_mip,
)
from quadlab.lp_core import simplex, stacked
from quadlab.lp_core.problem import RELATIONS
from quadlab.lp_core.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FEAS_TOL,
    FREE_ZERO,
    PIVOT_TOL,
    REFACTOR_EVERY,
    TIE_TOL,
    _Simplex,
)
from quadlab.portfolio import PortfolioProblem, optimize_cvar_dev, optimize_se_dev
from quadlab.regression import Dataset, _dual_problem, fit_quantile

from conftest import highs_objective


def _random_bounded_feasible(rng):
    """LP with a known interior point, finite bounds, mixed relations."""
    m, n = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    a = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    p = LpProblem(n)
    p.set_objective(rng.standard_normal(n))
    for j in range(n):
        p.set_bounds(j, x0[j] - rng.uniform(0.1, 2.0), x0[j] + rng.uniform(0.1, 2.0))
    for r in range(m):
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        slack = {"<=": rng.uniform(0, 1), ">=": -rng.uniform(0, 1), "=": 0.0}[rel]
        p.add_row(a[r], rel, float(a[r] @ x0 + slack))
    return p


def dual_certificate_value(problem, solution):
    """Lagrangian dual value from the returned multipliers; -inf if signs break."""
    d_struct = solution.reduced_costs
    value = float(solution.duals @ np.asarray(problem.rhs))
    for j in range(problem.num_vars):
        dj = d_struct[j]
        if dj > 1e-9:
            if not np.isfinite(problem.lower[j]):
                return -np.inf
            value += dj * problem.lower[j]
        elif dj < -1e-9:
            if not np.isfinite(problem.upper[j]):
                return -np.inf
            value += dj * problem.upper[j]
    for r, rel in enumerate(problem.relations):
        dr = -solution.duals[r]  # slack reduced cost
        if rel == "<=" and dr < -1e-9:
            return -np.inf
        if rel == ">=" and dr > 1e-9:
            return -np.inf
    return value


def _box_walk_problem():
    """Five equality rows over 300 [0, 1] columns; phase 2 from phase 1 needs 600 pivots."""
    rng = np.random.default_rng(2)
    m, n = 5, 300
    p = LpProblem(n)
    p.set_objective(rng.standard_normal(n))
    p.set_bounds(slice(0, n), 0.0, 1.0)
    a = rng.standard_normal((m, n))
    for r in range(m):
        p.add_row(a[r], "=", float(a[r].sum() / 2))
    return p


def _degenerate_cycle_problem():
    """Two rows through the origin over four [0, 1] columns; Dantzig pricing cycles at 0.

    A cone of the size Hall and McKinnon (2004) show to be the smallest
    that cycles: from the slack basis every pivot has length zero, and six
    pivots return to it.  The boxes make the optimum finite (-1.75).
    """
    p = LpProblem(4)
    p.set_objective([-2.3, -2.15, 13.55, 0.4])
    p.set_bounds(slice(0, 4), 0.0, 1.0)
    p.add_row([0.4, 0.2, -1.4, -0.2], "<=", 0.0)
    p.add_row([-7.8, -1.4, 7.8, 0.4], "<=", 0.0)
    return p


def _lapack_crash_basis(problem, at_upper, order=()):
    """``crash_basis`` by LAPACK ``dgetrf``: the reference for its picks.

    The whole candidate block is factored with partial pivoting; while
    some pivot falls below its floor, the first such column is deleted and
    the block factored again.
    """
    from scipy.linalg.lapack import dgetrf

    n, m = problem.num_vars, problem.num_rows
    vstate = np.full(n + m, FREE_ZERO, dtype=np.int8)
    vstate[np.flatnonzero(at_upper)] = AT_UPPER
    order = np.asarray(order, dtype=np.intp)[:simplex.CRASH_POOL * m]
    block = problem.extended[:, order]
    floor = (simplex.CRASH_PIVOT_SHARE * np.abs(block).max(axis=0, initial=0.0)).tolist()
    rows = list(range(m))  # the rows in LU's order: the k-th pick holds rows[k]
    while order.size:
        lu, piv, _ = dgetrf(block)
        low = [i for i, p in enumerate(np.abs(lu.diagonal()).tolist()) if not p >= floor[i] > 0]
        if not low:
            for i, p in enumerate(piv[:m].tolist()):
                rows[i], rows[p] = rows[p], rows[i]
            break
        block, order = np.delete(block, low[0], axis=1), np.delete(order, low[0])
        del floor[low[0]]
    basis = np.arange(n, n + m)
    basis[rows[:order.size]] = order[:m]
    vstate[basis] = BASIC
    return basis, vstate


def _record_steps(s):
    """The (length, Bland's rule on) of each step ``s`` takes from now on."""
    steps, apply_step = [], s._apply_step

    def recorded(j, sigma, t, *rest):
        steps.append((t, s.bland))
        return apply_step(j, sigma, t, *rest)

    s._apply_step = recorded
    return steps


def _highs_arrays(problem):
    a = problem.matrix
    rel = np.array(problem.relations)
    rhs = np.array(problem.rhs)
    return dict(c=problem.objective, A_ub=np.vstack((a[rel == "<="], -a[rel == ">="])),
                b_ub=np.concatenate((rhs[rel == "<="], -rhs[rel == ">="])),
                A_eq=a[rel == "="], b_eq=rhs[rel == "="],
                bounds=list(zip(problem.lower, problem.upper)))


def _assert_same_problem(p, q):
    """Every array of two problems equal bit for bit (signed zeros included)."""
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for name in ("objective", "lower", "upper", "is_binary", "matrix", "rhs"):
        assert same(getattr(p, name), getattr(q, name)), name
    assert p.relations == q.relations
    for name, a, b in zip(("lo", "hi", "kind"), p.column_classes(), q.column_classes()):
        assert same(a, b), name


def _assert_same_solution(a, b):
    """Every field of two ``LpSolution``s equal, arrays bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def _highs(problem):
    return linprog(**_highs_arrays(problem), method="highs")


def _highs_objective(problem):
    return highs_objective(**_highs_arrays(problem))


class TestSolveLp:
    def test_single_bound(self):
        p = LpProblem(1)
        p.set_objective([1.0])
        p.add_row({0: 1.0}, ">=", 1.0)
        s = solve_lp(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(1.0, abs=1e-12)

    def test_vertex_choice_deterministic(self):
        p = LpProblem(2)
        p.set_objective([-1.0, -1.0])
        p.set_bounds(0, 0, None)
        p.set_bounds(1, 0, None)
        p.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
        s = solve_lp(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-1.0, abs=1e-12)
        assert s.x.tolist() == [1.0, 0.0]

    def test_infeasible(self):
        p = LpProblem(1)
        p.add_row({0: 1.0}, ">=", 2.0)
        p.add_row({0: 1.0}, "<=", 1.0)
        assert solve_lp(p).status == "infeasible"

    def test_unbounded(self):
        p = LpProblem(1)
        p.set_objective([-1.0])
        p.set_bounds(0, 0, None)
        p.add_row({0: 1.0}, ">=", 0.0)
        assert solve_lp(p).status == "unbounded"

    def test_degenerate_cycling_guard(self):
        # classic cycling construction; the watchdog must still terminate it
        p = LpProblem(4)
        p.set_objective([-0.75, 150.0, -0.02, 6.0])
        rows = [([0.25, -60.0, -1 / 25, 9.0], "<=", 0.0),
                ([0.5, -90.0, -1 / 50, 3.0], "<=", 0.0),
                ([0.0, 0.0, 1.0, 0.0], "<=", 1.0)]
        for coeffs, rel, rhs in rows:
            p.add_row(np.array(coeffs), rel, rhs)
        for j in range(4):
            p.set_bounds(j, 0, None)
        s = solve_lp(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-0.05, abs=1e-10)

    def test_watchdog_trips_on_tracked_objective(self):
        # a Dantzig cycle of zero-length degenerate pivots: the objective
        # stays 0 until the watchdog (max(200, 4m) = 200 stalled iterations)
        # switches to Bland's rule, which then terminates
        p = _degenerate_cycle_problem()
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        assert s.phase1(10**6) == "feasible" and s.iterations == 0
        steps = _record_steps(s)
        assert s.phase2(10**6) == "optimal"
        assert [bland for _, bland in steps].index(True) == 201
        assert all(t == 0.0 for t, _ in steps[:201])
        assert s.obj == pytest.approx(_highs_objective(p), abs=1e-9)

    def test_watchdog_trips_in_phase1(self):
        # the same cycle with its objective moved into a violated row
        # c.x <= -1: phase 1's pricing is then the cycle's, and its total
        # violation stays 1 until the watchdog switches to Bland's rule
        p = _degenerate_cycle_problem()
        cost = p.objective.copy()
        p.add_row(cost, "<=", -1.0)
        p.set_objective(np.zeros(4))
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        steps = _record_steps(s)
        assert s.phase1(10**6) == "feasible"
        assert [bland for _, bland in steps].index(True) == 201
        assert all(t == 0.0 for t, _ in steps[:201])
        assert cost @ s.x[:4] <= -1.0 + 1e-9

    def test_long_phase2_with_falling_objective_keeps_dantzig(self):
        # hundreds of phase-2 iterations, but the objective keeps falling
        p = _box_walk_problem()
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        assert s.phase1(10**6) == "feasible"
        start = s.iterations
        assert s.phase2(10**6) == "optimal"
        assert s.iterations - start > 200
        assert not s.bland
        assert s.obj == pytest.approx(_highs_objective(p), abs=1e-9)

    @pytest.mark.parametrize("drift", [0.0, 1e-6], ids=["kept", "refactorized"])
    def test_solution_reports_the_last_pricing_unless_refactorized(self, drift):
        p = _box_walk_problem()
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        assert s.phase1(10**6) == "feasible" and s.phase2(10**6) == "optimal"
        marker = np.arange(s.N, dtype=float)
        s._d[:] = marker  # the last pricing, marked
        s.x[s.basis] += drift  # a row residual beyond ROW_TOL makes solution() refactorize
        sol = s.solution("optimal")
        if drift:
            assert np.array_equal(sol.reduced_costs, s._price(s.c)[1][:s.n])
        else:
            assert np.array_equal(sol.reduced_costs, marker[:s.n])
        assert np.array_equal(sol.duals, s._y)

    @pytest.mark.parametrize("every", [REFACTOR_EVERY, 3])
    def test_tracked_objective_resyncs_only_at_refactor(self, monkeypatch, every):
        # a short refactor period puts bound flips right after refactors
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", every)
        p = _box_walk_problem()
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        assert s.phase1(10**6) == "feasible"
        counts = {"objective": 0, "refactor": 0, "resync_checked": 0, "flip": 0, "pivot": 0,
                  "flip_after_refactor": 0}
        objective, refactor, apply_step, price = s._objective, s._refactor, s._apply_step, s._price
        pending = []

        def counted_objective():
            counts["objective"] += 1
            return objective()

        def counted_refactor():
            counts["refactor"] += 1
            refactor()
            pending.append(True)

        def counted_step(j, sigma, t, leave_row, *rest):
            counts["flip" if leave_row < 0 else "pivot"] += 1
            if leave_row < 0 and s.pivots_since_refactor == 0:
                counts["flip_after_refactor"] += 1
            return apply_step(j, sigma, t, leave_row, *rest)

        def checked_price(costs):
            # the first pricing after a refactor sees the resynced objective
            if pending:
                assert s.obj == objective()
                counts["resync_checked"] += 1
                pending.clear()
            return price(costs)

        s._objective, s._refactor = counted_objective, counted_refactor
        s._apply_step, s._price = counted_step, checked_price
        assert s.phase2(10**6) == "optimal"
        assert counts["pivot"] > 2 * every and counts["flip"] > 0
        assert counts["refactor"] >= 2
        if every < REFACTOR_EVERY:
            assert counts["flip_after_refactor"] > 0
        assert counts["resync_checked"] == counts["refactor"]
        # one rebuild when phase 2 starts, then one per refactor; bound
        # flips never rebuild it
        assert counts["objective"] == 1 + counts["refactor"]
        assert s.obj == pytest.approx(objective(), rel=1e-12, abs=1e-12)

    def test_equality_feasibility(self, rng):
        for _ in range(30):
            p = _random_bounded_feasible(rng)
            s = solve_lp(p)
            assert s.status == "optimal"
            a = p.matrix
            for r, rel in enumerate(p.relations):
                lhs = float(a[r] @ s.x)
                if rel == "<=":
                    assert lhs <= p.rhs[r] + 1e-8
                elif rel == ">=":
                    assert lhs >= p.rhs[r] - 1e-8
                else:
                    assert lhs == pytest.approx(p.rhs[r], abs=1e-8)
            assert np.all(s.x >= p.lower - 1e-9)
            assert np.all(s.x <= p.upper + 1e-9)

    def test_duality_certificates(self, rng):
        for _ in range(60):
            p = _random_bounded_feasible(rng)
            s = solve_lp(p)
            assert s.status == "optimal"
            dual = dual_certificate_value(p, s)
            assert dual == pytest.approx(s.objective, abs=1e-7, rel=1e-7)

    def test_determinism(self, rng):
        p = _random_bounded_feasible(rng)
        s1, s2 = solve_lp(p), solve_lp(p)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.basis, s2.basis)

    def test_rejects_binary_flags(self):
        p = LpProblem(1)
        p.mark_binary(0)
        with pytest.raises(LpError):
            solve_lp(p)

    def test_row_free_problem(self):
        p = LpProblem(2)
        p.set_objective([1.0, -2.0])
        p.set_bounds(0, -1, 5)
        p.set_bounds(1, -1, 5)
        s = solve_lp(p)
        assert s.status == "optimal"
        assert s.x.tolist() == [-1.0, 5.0]
        # each cost sign against each bound kind; None marks unbounded
        kinds = [(-1.0, 5.0), (2.0, np.inf), (-np.inf, 3.0), (-np.inf, np.inf)]
        expected = {1.0: [-1.0, 2.0, None, None],
                    -1.0: [5.0, None, 3.0, None],
                    0.0: [-1.0, 2.0, 3.0, 0.0]}
        cases = [(cost, lo, hi, x) for cost, xs in expected.items()
                 for (lo, hi), x in zip(kinds, xs)]
        for cost, lo, hi, x in cases:
            q = LpProblem(1)
            q.set_objective([cost])
            q.set_bounds(0, lo, hi)
            assert solve_lp(q).status == ("unbounded" if x is None else "optimal")
        # all bounded cases at once, then one unbounded column among them
        bounded = [case for case in cases if case[3] is not None]
        cost, lo, hi, x = (np.array(v) for v in zip(*bounded))
        q = LpProblem(cost.size)
        q.set_objective(cost)
        q.set_bounds(slice(None), lo, hi)
        s = solve_lp(q)
        assert s.status == "optimal"
        assert s.x.tolist() == x.tolist()
        assert s.objective == float(cost @ x)
        assert s.reduced_costs.tolist() == cost.tolist() and s.duals.size == 0
        q.set_bounds(3, None, None)
        assert solve_lp(q).status == "unbounded"

    def test_row_free_solve_validates_the_objective(self):
        # without rows the solve returned "optimal" with objective NaN
        for rows in (0, 1):
            p = LpProblem(2)
            p.set_objective([np.nan, 1.0])
            p.set_bounds(slice(None), 0.0, 1.0)
            if rows:
                p.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
            with pytest.raises(LpError, match="objective has non-finite entries"):
                solve_lp(p)

    def test_row_free_bounds_are_written_only_through_set_bounds(self):
        # bounds [3, 1] written directly into a row-free problem returned
        # "optimal" at x = 3; a problem with one row raised LpError
        for rows in (0, 1):
            p = LpProblem(1)
            p.set_objective([1.0])
            if rows:
                p.add_row({0: 1.0}, "<=", 5.0)
            with pytest.raises(ValueError, match="read-only"):
                p.lower[0] = 3.0
            with pytest.raises(ValueError, match="read-only"):
                p.upper[0] = 1.0
            with pytest.raises(LpError, match="empty or NaN bound interval for variable 0"):
                p.set_bounds(0, 3.0, 1.0)
            assert solve_lp(p).status == "unbounded"
            p.set_bounds(0, 1.0, 3.0)
            sol = solve_lp(p)
            assert (sol.status, sol.x.tolist()) == ("optimal", [1.0])


class TestSetBounds:
    def test_slice_with_scalar_ends(self):
        p = LpProblem(5)
        p.set_bounds(slice(1, 4), 0.0, None)
        assert p.lower.tolist() == [-np.inf, 0.0, 0.0, 0.0, -np.inf]
        assert np.all(np.isinf(p.upper))

    def test_index_array_with_array_ends(self):
        p = LpProblem(5)
        p.set_bounds(np.array([4, 0]), [1.0, -2.0], np.array([3.0, 2.0]))
        assert p.lower.tolist() == [-2.0, -np.inf, -np.inf, -np.inf, 1.0]
        assert p.upper.tolist() == [2.0, np.inf, np.inf, np.inf, 3.0]

    def test_none_end_with_array_end(self):
        p = LpProblem(3)
        p.set_bounds(np.arange(3), 0.0, 1.0)
        p.set_bounds([0, 2], None, [5.0, 6.0])
        assert p.lower.tolist() == [-np.inf, 0.0, -np.inf]
        assert p.upper.tolist() == [5.0, 1.0, 6.0]

    def test_matches_per_element_calls(self, rng):
        lo = rng.uniform(-2.0, 0.0, 40)
        hi = lo + rng.uniform(0.0, 2.0, 40)
        one, many = LpProblem(50), LpProblem(50)
        one.set_bounds(slice(5, 45), lo, hi)
        for i in range(40):
            many.set_bounds(5 + i, lo[i], hi[i])
        _assert_same_problem(one, many)

    def test_one_empty_interval_among_many_raises(self):
        lo, hi = np.zeros(6), np.ones(6)
        hi[3] = -1.0
        with pytest.raises(LpError, match="variable 4"):
            LpProblem(8).set_bounds(slice(1, 7), lo, hi)
        with pytest.raises(LpError, match="variable 2"):
            LpProblem(3).set_bounds(2, 1.0, 0.0)

    def test_nan_end_raises(self):
        # a NaN end passes a lower > upper test, and the solve then used it
        p = LpProblem(2)
        p.set_objective([1.0, 1.0])
        p.add_row({0: 1.0, 1: 1.0}, ">=", 0.5)
        with pytest.raises(LpError, match="NaN bound interval for variable 0"):
            p.set_bounds(0, np.nan, 1.0)
        with pytest.raises(LpError, match="variable 1"):
            p.set_bounds(slice(None), [0.0, 0.0], [1.0, np.nan])

    @pytest.mark.parametrize("j, lo, hi", [
        (1, np.nan, 1.0), (-1, 3.0, 2.5), (np.int64(2), 1.0, 0.0),
        (slice(1, 4), 0.0, [1.0, np.nan, 1.0]), (np.array([3, 0]), [0.0, 5.0], 1.0),
        ([0, 2], None, [1.0, np.nan]), (2, np.inf, None), (0, None, -np.inf),
        (slice(0, 2), [-1.0, np.inf], np.inf), ([3], -np.inf, [-np.inf]),
    ], ids=["int NaN", "negative int", "numpy int", "slice", "index array", "list",
            "int +inf only", "int -inf only", "slice +inf only", "list -inf only"])
    def test_refused_call_changes_nothing(self, j, lo, hi):
        p = LpProblem(4)
        p.set_bounds(slice(None), [-1.0, 0.0, 0.5, -2.0], [1.0, 3.0, 0.5, 2.0])
        before = p.lower.copy(), p.upper.copy()
        with pytest.raises(LpError, match="empty or NaN"):
            p.set_bounds(j, lo, hi)
        assert np.array_equal(p.lower, before[0]) and np.array_equal(p.upper, before[1])

    @staticmethod
    def _two_var_problem():
        p = LpProblem(2)
        p.set_objective([1.0, 1.0])
        p.add_row({0: 1.0, 1: 1.0}, "<=", 5.0)
        return p

    @pytest.mark.parametrize("j", [0, slice(0, 2), np.array([1, 0])],
                             ids=["int", "slice", "index array"])
    def test_mark_binary_refuses_an_empty_clip(self, j):
        # clipping [2, 3] to [0, 1] leaves [2, 1], and solve_mip then
        # returned "optimal" with the binary at 2
        p = self._two_var_problem()
        p.set_bounds(0, 2.0, 3.0)
        p.set_bounds(1, -1.0, 0.5)
        before = p.lower.copy(), p.upper.copy(), p.is_binary.copy()
        with pytest.raises(LpError, match="empty or NaN bound interval for variable 0"):
            p.mark_binary(j)
        for kept, old in zip((p.lower, p.upper, p.is_binary), before):
            assert np.array_equal(kept, old)

    @pytest.mark.parametrize("lo, hi", [(3.0, 1.0), (np.nan, 1.0), (0.0, np.nan),
                                        (np.inf, np.inf), (-np.inf, -np.inf)],
                             ids=["empty", "NaN lower", "NaN upper", "+inf only", "-inf only"])
    def test_validate_refuses_bounds_written_directly(self, lo, hi):
        # solve_lp returned "optimal" at x0 = 3 for [3, 1] and at x0 = 1 for [NaN, 1];
        # [inf, inf] and [-inf, -inf] warned of inf - inf and returned "unbounded".
        # The bounds are read-only now, so such a write is refused, and only
        # set_bounds, which refuses these intervals, writes them.
        p = self._two_var_problem()
        before = solve_lp(p)
        for bounds, end in ((p.lower, lo), (p.upper, hi)):
            with pytest.raises(ValueError, match="read-only"):
                bounds[0] = end
        with pytest.raises(LpError, match="empty or NaN bound interval for variable 0"):
            p.set_bounds(0, lo, hi)
        _assert_same_problem(p, self._two_var_problem())
        _assert_same_solution(solve_lp(p), before)


class TestColumnClasses:
    """The bounds and column classes a problem keeps follow every write.

    Each case solves, writes, and solves again; the second solve must equal,
    field for field, a solve of a problem built fresh from the final data,
    and so must the problem's arrays, its classes included.
    """

    @staticmethod
    def _data(rng, n=9, m=4):
        """(c, lo, hi, a, relations, rhs) of a bounded LP feasible around a point."""
        x0 = rng.uniform(-1.0, 1.0, n)
        lo, hi = x0 - rng.uniform(0.1, 2.0, n), x0 + rng.uniform(0.1, 2.0, n)
        lo[1], hi[2] = -np.inf, np.inf  # an upper-only and a lower-only column
        a = rng.standard_normal((m, n))
        relations = ["<=", ">=", "=", "<="][:m]
        rhs = a @ x0 + np.select([np.array(relations) == "<=", np.array(relations) == ">="],
                                 [1.0, -1.0], 0.0)
        return rng.standard_normal(n), lo, hi, a, relations, rhs

    @staticmethod
    def _build(c, lo, hi, a, relations, rhs):
        p = LpProblem(c.size)
        p.set_objective(c)
        p.set_bounds(slice(None), lo, hi)
        p.add_rows(a, relations, rhs)
        return p

    def _check(self, p, data):
        """``p`` against a problem built fresh from ``data``: arrays and a solve."""
        fresh = self._build(*data)
        _assert_same_problem(p, fresh)
        _assert_same_solution(solve_lp(p), solve_lp(fresh))

    @pytest.mark.parametrize("write", ["scalar slice", "scalar int", "negative int", "array",
                                       "fixed", "refused scalar", "refused array"])
    def test_set_bounds(self, rng, write):
        data = self._data(rng)
        c, lo, hi, a, relations, rhs = data
        p = self._build(*data)
        solve_lp(p)
        j, new_lo, new_hi = {
            "scalar slice": (slice(3, 7), -0.5, 0.5),
            "scalar int": (4, None, 0.25),
            "negative int": (-1, -2.0, None),  # the last variable, not the last slack
            "array": (np.array([6, 0, 2]), [-1.0, -3.0, 0.0], np.array([1.0, 3.0, np.inf])),
            "fixed": ([0, 5], 0.5, 0.5),
            "refused scalar": (3, 1.0, 0.0),
            "refused array": (slice(0, 3), [0.0, 0.0, 0.0], [1.0, np.nan, 1.0]),
        }[write]
        if write.startswith("refused"):
            with pytest.raises(LpError, match="empty or NaN"):
                p.set_bounds(j, new_lo, new_hi)
        else:
            p.set_bounds(j, new_lo, new_hi)
            lo[j] = -np.inf if new_lo is None else new_lo
            hi[j] = np.inf if new_hi is None else new_hi
        self._check(p, data)

    def test_set_relation(self, rng):
        data = self._data(rng)
        p = self._build(*data)
        solve_lp(p)
        p.set_relation([0, 2], "free")
        p.set_relation(-1, ">=")
        data[4][:] = ["free", ">=", "free", ">="]
        self._check(p, data)
        p.set_relation(slice(None), "=")
        data[4][:] = ["="] * 4
        self._check(p, data)

    @pytest.mark.parametrize("one_row", [True, False], ids=["add_row", "add_rows"])
    def test_add_rows(self, rng, one_row):
        c, lo, hi, a, relations, rhs = data = self._data(rng, m=2)
        p = self._build(*data)
        solve_lp(p)
        block, new = rng.standard_normal((2, c.size)), [">=", "free"]
        if one_row:
            p.add_row(block[0], new[0], -5.0)
            block, new = block[:1], new[:1]
        else:
            p.add_rows(block, new, -5.0)
        self._check(p, (c, lo, hi, np.vstack((a, block)), relations + new,
                        np.append(rhs, [-5.0] * len(new))))

    def test_mark_binary(self, rng):
        c, lo, hi, a, relations, rhs = data = self._data(rng)
        lo[[0, 3]], hi[[0, 3]] = -0.5, [0.75, 2.0]
        p = self._build(*data)
        solve_lp(p)
        p.mark_binary([0, 3])
        lo[[0, 3]], hi[3] = 0.0, 1.0  # clipped to [0, 1]
        fresh = self._build(*data)
        fresh.is_binary[[0, 3]] = True
        _assert_same_problem(p, fresh)
        # the relaxation solve_mip solves: the same problem without the flags
        p.is_binary[:] = fresh.is_binary[:] = False
        self._check(p, data)

    @pytest.mark.parametrize("written", ["copy", "original"])
    def test_copy_then_write_either(self, rng, written):
        data = self._data(rng)
        p = self._build(*data)
        solve_lp(p)
        q = p.copy()
        changed, kept = (q, p) if written == "copy" else (p, q)
        changed.set_bounds(slice(0, 4), -0.25, 0.25)
        changed.set_relation(1, "free")
        self._check(kept, data)
        c, lo, hi, a, relations, rhs = data
        lo[:4], hi[:4] = -0.25, 0.25
        relations[1] = "free"
        self._check(changed, data)

    def test_direct_writes_are_refused(self):
        # min x0 s.t. x0 + x1 >= 2, x0 >= 0, x1 in [0, 5]: a cache that missed
        # the write p.lower[0] = -3.0 answered 0.0 where the optimum is -3.0
        p = LpProblem(2)
        p.set_objective([1.0, 0.0])
        p.set_bounds(0, 0.0, None)
        p.set_bounds(1, 0.0, 5.0)
        p.add_row({0: 1.0, 1: 1.0}, ">=", 2.0)
        assert solve_lp(p).objective == 0.0
        with pytest.raises(ValueError, match="read-only"):
            p.lower[0] = -3.0
        with pytest.raises(ValueError, match="read-only"):
            p.upper[1] = 6.0
        with pytest.raises(TypeError):
            p.relations[0] = "free"  # the row's slack would keep ">="
        with pytest.raises(AttributeError):
            p.relations = ("free",) + p.relations[1:]  # so would a rebind
        for kept in p.column_classes():
            with pytest.raises(ValueError, match="read-only"):
                kept[-1] = kept[0]
        assert p.relations == (">=",)
        assert solve_lp(p).objective == 0.0
        p.set_bounds(0, -3.0, None)
        assert solve_lp(p).objective == -3.0


class TestCrashBasis:
    @staticmethod
    def _mixed_problem():
        # columns: boxed, free, lower-only, upper-only, boxed, boxed
        p = LpProblem(6)
        p.set_objective([1.0, 0.0, 1.0, -1.0, -1.0, 0.5])
        p.set_bounds([0, 4, 5], 0.0, 1.0)
        p.set_bounds(2, 0.0, None)
        p.set_bounds(3, None, 2.0)
        p.add_row([1.0, 1.0, 0.0, 0.0, 1.0, 1.0], ">=", -5.0)
        p.add_row([0.0, 1.0, 1.0, 1.0, 0.0, 0.0], "<=", 4.0)
        p.add_row([1.0, 0.0, 0.0, 1.0, 1.0, 1.0], "=", 1.0)
        return p

    def test_states(self):
        p = self._mixed_problem()
        at_upper = np.array([False, False, False, False, True])
        basis, vstate = crash_basis(p, at_upper, [5])
        # column 5 holds one row; the other rows keep their slacks (6-8)
        assert set(basis.tolist()) == {5, 7, 8}
        assert vstate.tolist() == [FREE_ZERO] * 4 + [AT_UPPER, BASIC, FREE_ZERO, BASIC, BASIC]
        # the start settles each nonbasic state to its column's bounds
        s = _Simplex(p)
        assert s.warm_start(basis, vstate)
        assert s.vstate.tolist() == [AT_LOWER, FREE_ZERO, AT_LOWER, AT_UPPER, AT_UPPER,
                                     BASIC, AT_UPPER, BASIC, BASIC]

    def test_pair_reads_no_bounds_or_relations(self):
        p = self._mixed_problem()
        at_upper = np.array([False, False, False, False, True])
        pair = crash_basis(p, at_upper, [5])
        p.set_bounds([0, 1, 2, 3], None, None)
        p.set_bounds(4, 0.0, None)
        p.set_relation([0, 2], "free")
        again = crash_basis(p, at_upper, [5])
        assert [a.tolist() for a in again] == [a.tolist() for a in pair]
        s = _Simplex(p)
        assert s.warm_start(*again)
        # column 4 has no upper bound left, so its flag falls to its lower bound
        assert s.vstate.tolist() == [FREE_ZERO] * 4 + [AT_LOWER, BASIC, FREE_ZERO, BASIC, BASIC]

    def test_dependent_candidates_are_skipped(self):
        p = self._mixed_problem()
        # columns 0, 4 and 5 are equal: only the first listed enters, and
        # row 2, which no later candidate can hold, keeps its slack
        basis, _ = crash_basis(p, (), [5, 4, 0, 2])
        assert set(basis.tolist()) == {5, 2, 8}
        # a listed slack holds its own row while that row is open
        basis, _ = crash_basis(p, (), [7, 5, 3])
        assert set(basis.tolist()) == {7, 5, 3}
        # candidates past the first CRASH_POOL * rows are not read
        basis, _ = crash_basis(p, (), [4] * (simplex.CRASH_POOL * 3) + [2, 3])
        assert set(basis.tolist()) == {4, 7, 8}

    def test_matches_elimination_in_priority_order(self, rng):
        # the rule written out as a column walk: each candidate is reduced
        # against the earlier picks, enters on its largest entry on an open
        # row when that entry is at least CRASH_PIVOT_SHARE of its own
        # largest, and is skipped otherwise
        for _ in range(40):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            a = rng.standard_normal((m, n))
            a[:, rng.random(n) < 0.2] = 0.0                     # empty columns
            a[:, -1] = a[:, 0] * (1.0 + 1e-3 * rng.random())    # a dependent one
            p = LpProblem(n)
            for row in a:
                p.add_row(row, "=", 0.0)
            order = rng.permutation(n + m)[: int(rng.integers(0, n + m + 1))]
            work = np.hstack((a, np.eye(m)))[:, order]
            expected = list(range(n, n + m))
            open_rows = np.ones(m, dtype=bool)
            for k, j in enumerate(order[: simplex.CRASH_POOL * m]):
                mag = np.where(open_rows, np.abs(work[:, k]), 0.0)
                r = int(np.argmax(mag))
                if not mag[r] > 0 or mag[r] < simplex.CRASH_PIVOT_SHARE * np.abs(
                        np.hstack((a, np.eye(m)))[:, j]).max():
                    continue
                expected[r] = j
                open_rows[r] = False
                work[:, k + 1:] -= np.outer(work[:, k] / work[r, k], work[r, k + 1:])
            basis, vstate = crash_basis(p, (), order)
            assert basis.tolist() == expected
            assert np.flatnonzero(vstate == BASIC).tolist() == sorted(expected)
            assert _Simplex(p).warm_start(basis, vstate)

    @staticmethod
    def _seeded_block(rng, m, entries, length):
        """An m-row problem of mixed bounds and relations, its at-upper flags and an order.

        ``entries`` is "gaussian", "degenerate" (Gaussian with zero
        columns, a repeated column and a dependent row) or "tied" (small
        integers).  The order is the first ``length`` entries of a
        permutation of all n + m columns followed by random repeats.
        """
        n = int(rng.integers(1, 3 * m + 3))
        if entries == "tied":
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
        else:
            a = rng.standard_normal((m, n))
        if entries == "degenerate":
            a[:, rng.random(n) < 0.2] = 0.0
            a[:, rng.integers(n)] = a[:, rng.integers(n)]
            if m > 1:
                a[-1] = rng.standard_normal(m - 1) @ a[:-1]
        p = LpProblem(n)
        ends = rng.integers(4, size=n)
        p.set_bounds(np.flatnonzero(ends == 0), None, None)
        p.set_bounds(np.flatnonzero(ends == 1), 0.0, None)
        p.set_bounds(np.flatnonzero(ends == 2), None, 1.0)
        for row in a:
            p.add_row(row, RELATIONS[int(rng.integers(len(RELATIONS)))], 0.0)
        order = np.concatenate((rng.permutation(n + m), rng.integers(n + m, size=length)))
        return p, rng.random(n) < 0.3, order[:length]

    def test_matches_lapack_reference(self, rng):
        # left-looking elimination in Python floats picks what LAPACK's
        # refactor-and-delete loop picks on blocks without exact ties
        for m, entries, _ in itertools.product(range(1, 13), ("gaussian", "degenerate"), range(4)):
            for length in (int(rng.integers(m)),                                  # fewer than m
                           int(rng.integers(m, 2 * m + 1)),
                           simplex.CRASH_POOL * m + int(rng.integers(1, 9))):     # past the pool
                p, at_upper, order = self._seeded_block(rng, m, entries, length)
                basis, vstate = crash_basis(p, at_upper, order)
                expected = _lapack_crash_basis(p, at_upper, order)
                assert basis.tolist() == expected[0].tolist()
                s = _Simplex(p)
                assert s.warm_start(basis, vstate)
                assert s.vstate.tolist() == _loop_snap(expected[1], s.lo, s.hi)

    def test_tied_blocks_pick_a_nonsingular_basis_past_every_floor(self, rng):
        # on integer blocks, rounding breaks mathematically tied pivots in
        # its own way (LAPACK builds differ too), so check the pick rule:
        # each pick's entry on its row, reduced by the earlier picks, is
        # the largest on the open rows and at least its floor
        share = simplex.CRASH_PIVOT_SHARE
        for m in range(1, 13):
            for _ in range(20):
                p, at_upper, order = self._seeded_block(rng, m, "tied", 2 * m)
                n = p.num_vars
                order = order[order < n]  # structural only: every basic structural is a pick
                basis, _ = crash_basis(p, at_upper, order)
                a = p.extended
                assert np.linalg.matrix_rank(a[:, basis]) == m
                picks = sorted((order.tolist().index(j), r, j)
                               for r, j in enumerate(basis.tolist()) if j < n)
                held, cols = [], []
                for _, r, j in picks:
                    open_rows = [i for i in range(m) if i not in held]
                    reduced = a[open_rows, j]
                    if held:
                        reduced = reduced - a[np.ix_(open_rows, cols)] @ np.linalg.solve(
                            a[np.ix_(held, cols)], a[held, j])
                    pivot = abs(reduced[open_rows.index(r)])
                    assert pivot >= (1 - 1e-9) * max(np.abs(reduced).max(),
                                                     share * np.abs(a[:, j]).max())
                    assert pivot > 0
                    held.append(r)
                    cols.append(j)

    def test_pool_is_the_smallest_keys_by_key_then_index(self):
        key = np.array([3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0])
        assert simplex.crash_pool(key, 0).tolist() == []
        # 8 per row: the cut falls among the nine keys equal to 1.0, and
        # the lowest indices among them make it
        assert simplex.crash_pool(np.tile(key, 3), 1).tolist() == [4, 11, 18, 1, 3, 6, 8, 10]
        assert simplex.crash_pool(key, 1).tolist() == [4, 1, 3, 6, 2, 5, 0]

    def test_slack_basis_by_default(self):
        p = self._mixed_problem()
        basis, vstate = crash_basis(p, np.zeros(6, dtype=bool))
        assert basis.tolist() == [6, 7, 8]
        s = _Simplex(p)
        assert s.warm_start(basis, vstate)
        assert s.vstate[:6].tolist() == [AT_LOWER, FREE_ZERO, AT_LOWER, AT_UPPER, AT_LOWER,
                                         AT_LOWER]

    def test_cold_start_is_the_slack_crash(self, rng):
        cases = [self._mixed_problem(), _degenerate_cycle_problem(), _box_walk_problem()]
        cases += [_random_bounded_feasible(rng) for _ in range(20)]
        for p in cases:
            cold, crashed = solve_lp(p), solve_lp(p, warm=crash_basis(p, ()))
            assert not cold.warm_used and crashed.warm_used
            crashed.warm_used = False
            _assert_same_solution(cold, crashed)

    def test_solve_lp_accepts_crash_start(self, rng):
        p = self._mixed_problem()
        for basic in ((), [5], [4, 0]):
            s = solve_lp(p, warm=crash_basis(p, [True, False, False, False, True], basic))
            assert s.status == "optimal"
            assert s.objective == pytest.approx(solve_lp(p).objective, abs=1e-10)
        for _ in range(20):
            q = _random_bounded_feasible(rng)
            flags = rng.random(q.num_vars) < 0.5
            s = solve_lp(q, warm=crash_basis(q, flags))
            assert s.status == "optimal"
            assert s.objective == pytest.approx(solve_lp(q).objective, abs=1e-8)


class TestLowerShare:
    # the boxes of the centred regression dual, [-1/(2n), 1/(2n)], and of
    # the part-balancing portfolio dual, [0, 1/n]
    BOXES = [(-1.0 / (2 * n), 1.0 / (2 * n)) for n in (3, 100, 10_000)] + \
        [(0.0, 1.0 / n) for n in (3, 500, 10_000)]

    @staticmethod
    def _farthest_within(end, toward):
        """The float farthest from ``end`` toward ``toward`` that is within FEAS_TOL of it."""
        u = end + np.copysign(FEAS_TOL, toward - end)
        while abs(end - u) > FEAS_TOL:
            u = np.nextafter(u, end)
        return u

    def test_multipliers_near_an_end_count_as_at_it(self):
        for lo, hi in self.BOXES:
            near_hi = [np.nextafter(hi, lo), self._farthest_within(hi, lo), hi]
            near_lo = [np.nextafter(lo, hi), self._farthest_within(lo, hi), lo]
            for u in near_hi:
                assert lower_share(np.array([u]), lo, hi) == 0.0, (lo, hi, u)
            for u in near_lo:
                assert lower_share(np.array([u]), lo, hi) == 1.0, (lo, hi, u)
            # n multipliers, k at (or within FEAS_TOL of) the lower end: exactly k/n
            u = np.array(near_lo + near_hi + near_lo[:1])
            assert lower_share(u, lo, hi) == 4 / 7
            # twice FEAS_TOL away is inside the box and adds a fraction
            step = 2 * FEAS_TOL / (hi - lo)
            assert lower_share(np.array([hi - 2 * FEAS_TOL]), lo, hi) == pytest.approx(step)
            assert 1.0 - lower_share(np.array([lo + 2 * FEAS_TOL]), lo, hi) == pytest.approx(step)

    def test_clamped_to_the_unit_interval(self):
        assert lower_share(np.array([-1.0, -1.0]), 0.0, 0.5) == 1.0
        assert lower_share(np.array([2.0, 0.5]), 0.0, 0.5) == 0.0

    def test_symmetric_box_is_the_pinball_share(self, rng):
        # the rule ``fit_biased_mean`` read off [-h, h] before it called
        # lower_share, which its ``equiv_alpha`` must keep bit for bit
        for n in (3, 100, 10_000):
            h = 1.0 / (2 * n)
            u = rng.uniform(-h, h, n)
            picks = rng.random(n)
            u[picks < 0.3] = h - FEAS_TOL * rng.random(int(np.sum(picks < 0.3)))
            u[picks > 0.7] = -h + FEAS_TOL * rng.random(int(np.sum(picks > 0.7)))
            snapped = np.where(h - np.abs(u) <= FEAS_TOL, np.copysign(h, u), u)
            share = min(max(float(np.sum((h - snapped) / (2.0 * h))) / n, 0.0), 1.0)
            assert np.float64(lower_share(u, -h, h)).tobytes() == np.float64(share).tobytes()


def _loop_snap(vstate, lo, hi):
    """Per-variable reference for the warm start's state snapping."""
    out = list(vstate)
    for j, s in enumerate(out):
        if s == AT_LOWER and not np.isfinite(lo[j]):
            out[j] = AT_UPPER if np.isfinite(hi[j]) else FREE_ZERO
        elif s == AT_UPPER and not np.isfinite(hi[j]):
            out[j] = AT_LOWER if np.isfinite(lo[j]) else FREE_ZERO
        elif s == FREE_ZERO and np.isfinite(lo[j]):
            out[j] = AT_LOWER
        elif s == FREE_ZERO and np.isfinite(hi[j]):
            out[j] = AT_UPPER
    return out


class TestStartStates:
    @staticmethod
    def _all_bound_kinds(rng, n=60):
        p = LpProblem(n)
        # 0 lower only, 1 upper only, 2 boxed, 3 free
        kinds = rng.integers(0, 4, n)
        lo = np.where(kinds % 2 == 0, rng.uniform(-3.0, 1.0, n), -np.inf)
        hi = np.where(kinds == 2, lo + rng.uniform(0.0, 3.0, n), np.inf)
        hi[kinds == 1] = rng.uniform(-3.0, 3.0, int(np.sum(kinds == 1)))
        p.set_bounds(slice(0, n), lo, hi)
        p.add_row(rng.standard_normal(n), "<=", 1.0)
        p.add_row(rng.standard_normal(n), ">=", -1.0)
        return p

    def test_warm_start_snap_matches_loop(self, rng):
        p = self._all_bound_kinds(rng)
        s = _Simplex(p)
        vstate = rng.choice([AT_LOWER, AT_UPPER, FREE_ZERO], s.N).astype(np.int8)
        basis = np.arange(p.num_vars, s.N)
        assert s.warm_start(basis, vstate)
        expected = _loop_snap(vstate, s.lo, s.hi)
        for i in basis:
            expected[i] = BASIC
        assert s.vstate.tolist() == expected

    def test_nonbasic_values_match_loop(self, rng):
        p = self._all_bound_kinds(rng)
        s = _Simplex(p)
        vstate = rng.choice([AT_LOWER, AT_UPPER, FREE_ZERO], s.N).astype(np.int8)
        assert s.warm_start(np.arange(p.num_vars, s.N), vstate)
        expected = np.zeros(s.N)
        for j, state in enumerate(s.vstate):
            if state == AT_LOWER:
                expected[j] = s.lo[j]
            elif state == AT_UPPER:
                expected[j] = s.hi[j]
        nonbasic = s.vstate != BASIC
        assert np.array_equal(s.x[nonbasic], expected[nonbasic])


class TestValueVector:
    """``x`` is the only record of variable values, so it must stay exact."""

    @staticmethod
    def _check_state(s, name):
        """The solver state against a from-scratch derivation from (basis, vstate, lo, hi)."""
        nonbasic = s.vstate != BASIC
        bound = np.where(s.vstate == AT_LOWER, s.lo, np.where(s.vstate == AT_UPPER, s.hi, 0.0))
        assert s.x[nonbasic].tobytes() == bound[nonbasic].tobytes(), name
        assert np.max(np.abs(s.A @ s.x - s.b)) <= simplex.ROW_TOL, name
        assert np.array_equal(np.flatnonzero(~nonbasic), np.sort(s.basis)), name
        fin_lo, fin_hi = np.isfinite(s.lo), np.isfinite(s.hi)
        fixed = s.lo == s.hi
        # kinds FREE, LOWER, UPPER, BOXED, FIXED: the finite ends, then equal ends
        assert np.array_equal(s.kind, fin_lo + 2 * fin_hi + fixed), name
        span = np.array([hi - lo if np.isfinite(hi - lo) else np.inf for lo, hi in zip(s.lo, s.hi)])
        assert s.span.tobytes() == span.tobytes(), name
        assert np.array_equal(s.price_sign,
                              np.where(fixed, 0.0, simplex._PRICE_SIGN[s.vstate])), name
        assert s.free_nonbasic == np.count_nonzero(s.vstate == FREE_ZERO), name
        if s._d is not None:  # the cached pricing of the current basis, duals included
            y, d = s._price(s.c)
            assert s._d.tobytes() == d.tobytes() and s._y.tobytes() == y.tobytes(), name

    @classmethod
    def _check_after_steps(cls, monkeypatch):
        """Check the state after every start, snap, primal and dual step; returns the counts."""
        counts = {"warm_start": 0, "_snap_to_dual_feasible": 0, "_apply_step": 0,
                  "_dual_step": 0, "flip": 0}

        refusable = ("warm_start", "_snap_to_dual_feasible")

        def checked(name):
            step = getattr(_Simplex, name)

            def run(s, *args):
                out = step(s, *args)
                if out is not False or name not in refusable:  # a refusal changes nothing
                    cls._check_state(s, name)
                    counts[name] += 1
                counts["flip"] += name == "_apply_step" and args[3] < 0
                return out
            monkeypatch.setattr(_Simplex, name, run)

        for name in ("warm_start", "_snap_to_dual_feasible", "_apply_step", "_dual_step"):
            checked(name)
        return counts

    def test_nonbasic_at_bounds_and_rows_hold_after_every_step(self, rng, monkeypatch):
        counts = self._check_after_steps(monkeypatch)
        for _ in range(30):
            assert solve_lp(_random_bounded_feasible(rng)).status == "optimal"
        # primal phases only: hundreds of pivots and bound flips, refactors between
        p = _box_walk_problem()
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        assert s.phase1(10**6) == "feasible" and s.phase2(10**6) == "optimal"
        x = rng.standard_normal((2000, 3))
        fit_quantile(Dataset(x, x @ [1.0, -0.5, 0.25] + rng.standard_normal(2000)), 0.7)
        problem = PortfolioProblem(four_asset_returns(2000, 5), FOUR_ASSET_TARGET_MEAN)
        optimize_se_dev(problem, 0.002)
        optimize_cvar_dev(problem, 0.9)
        assert counts["_apply_step"] > 2 * REFACTOR_EVERY
        assert counts["_dual_step"] > 0 and counts["flip"] > 0
        assert counts["warm_start"] > 30 and counts["_snap_to_dual_feasible"] > 0


def _loop_choose_entering(s, d):
    """Per-mask reference for the entering choice: (j, sigma), j = -1 if none."""
    eligible_lo = (s.vstate == AT_LOWER) & (d < -s.dual_tol) & (s.lo != s.hi)
    eligible_up = (s.vstate == AT_UPPER) & (d > s.dual_tol) & (s.lo != s.hi)
    eligible_fr = (s.vstate == FREE_ZERO) & (np.abs(d) > s.dual_tol)
    eligible = eligible_lo | eligible_up | eligible_fr
    if not np.any(eligible):
        return -1, 0
    idx = np.nonzero(eligible)[0]
    j = idx[0] if s.bland else idx[np.argmax(np.abs(d[idx]))]
    if s.vstate[j] == AT_LOWER:
        sigma = 1
    elif s.vstate[j] == AT_UPPER:
        sigma = -1
    else:
        sigma = 1 if d[j] < 0 else -1
    return int(j), sigma


def _loop_ratio_test(s, j, sigma, phase1_viol=None):
    """Row-by-row reference for the ratio test: (t, leave_row, leave_state).

    The bound flip wins unless a row's step is more than 1e-12 below it.
    Otherwise the step is the smallest, clamped at zero; among the rows
    within 1e-12 of it the largest |delta| wins within 1e-15 (all tie under
    Bland's rule), then the lowest basic index.
    """
    delta = -sigma * (s.binv @ s.A[:, j])
    span = s.hi[j] - s.lo[j]
    flip_t = span if np.isfinite(span) else np.inf
    lo_b, hi_b, xb = s.lo[s.basis], s.hi[s.basis], s.x[s.basis]
    steps = []
    for i in range(s.m):
        di = delta[i]
        if abs(di) <= PIVOT_TOL:
            continue
        if phase1_viol is not None and phase1_viol[i] == -1:
            if di <= 0:
                continue
            t, state = (lo_b[i] - xb[i]) / di, AT_LOWER
        elif phase1_viol is not None and phase1_viol[i] == 1:
            if di >= 0:
                continue
            t, state = (hi_b[i] - xb[i]) / di, AT_UPPER
        elif di > 0:
            if not np.isfinite(hi_b[i]):
                continue
            t, state = (hi_b[i] - xb[i]) / di, AT_UPPER
        else:
            if not np.isfinite(lo_b[i]):
                continue
            t, state = (lo_b[i] - xb[i]) / di, AT_LOWER
        steps.append((0.0 if t < -FEAS_TOL else t, i, state))
    if not steps or not min(steps)[0] < flip_t - 1e-12:
        return flip_t, -1, AT_UPPER if sigma == 1 else AT_LOWER
    best_t = max(min(steps)[0], 0.0)
    tied = [(i, state) for t, i, state in steps if t <= best_t + 1e-12]
    if not s.bland:
        largest = max(abs(delta[i]) for i, _ in tied)
        tied = [(i, state) for i, state in tied if abs(delta[i]) >= largest - 1e-15]
    leave_row, leave_state = min(tied, key=lambda row: s.basis[row[0]])
    return best_t, leave_row, leave_state


def _entering_moves(s):
    """Every (j, sigma) a nonbasic, non-fixed column can enter with."""
    for j in np.flatnonzero((s.vstate != BASIC) & (s.lo != s.hi)):
        if s.vstate[j] == FREE_ZERO:
            yield int(j), 1
            yield int(j), -1
        else:
            yield int(j), 1 if s.vstate[j] == AT_LOWER else -1


def _assert_ratio_tests_match(s, phase1_viol=None):
    """Compare every entering move under Dantzig and Bland; returns the outcomes."""
    outcomes = []
    for bland in (False, True):
        s.bland = bland
        for j, sigma in _entering_moves(s):
            t, row, state, _, _ = s._ratio_test(j, sigma, phase1_viol)
            ref = _loop_ratio_test(s, j, sigma, phase1_viol)
            assert (t, row, state) == ref, (j, sigma, bland)
            outcomes.append(ref)
    s.bland = False
    return outcomes


def _equality_box_problem(rng, m=12, n=20, fixed=(), free=()):
    """Equality rows over boxed columns; chosen columns fixed or free."""
    p = LpProblem(n)
    lo = rng.uniform(-1.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 1.0, n)
    hi[list(fixed)] = lo[list(fixed)]
    p.set_bounds(slice(0, n), lo, hi)
    if free:
        p.set_bounds(list(free), None, None)
    p.set_objective(rng.standard_normal(n))
    a = rng.standard_normal((m, n))
    for r in range(m):
        p.add_row(a[r], "=", float(rng.standard_normal()))
    return p


class TestIterationKernels:
    """Vectorized pricing and ratio test against their per-row loop references."""

    def test_choose_entering_matches_loop(self, rng):
        p = _equality_box_problem(rng, m=6, n=40, fixed=(3, 7, 11), free=(0, 5, 20))
        # |d| drawn from a few values so that exact ties are common
        levels = np.array([-2.0, -1.0, -2e-9, -1e-9, 0.0, 1e-9, 2e-9, 1.0, 2.0])
        for _ in range(40):
            s = _Simplex(p)
            vstate = rng.choice([AT_LOWER, AT_UPPER, FREE_ZERO], s.N).astype(np.int8)
            basis = rng.choice(s.N, s.m, replace=False)
            if not s.warm_start(basis, vstate):
                continue
            d = rng.choice(levels, s.N)
            for bland in (False, True):
                s.bland = bland
                assert s._choose_entering(d) == _loop_choose_entering(s, d)
        s.bland = False
        assert s._choose_entering(np.zeros(s.N)) == (-1, 0)

    def test_choose_entering_skips_fixed_takes_free(self, rng):
        p = _equality_box_problem(rng, m=3, n=6, fixed=(0,), free=(1,))
        s = _Simplex(p)
        assert s.warm_start(np.arange(6, 9), np.full(9, AT_LOWER, dtype=np.int8))
        d = np.zeros(s.N)
        d[0] = -5.0                      # fixed: never enters
        d[1] = 3.0                       # free: enters downward with |d|
        d[2] = -1.0
        assert s._choose_entering(d) == (1, -1) == _loop_choose_entering(s, d)
        s.bland = True
        assert s._choose_entering(d) == (1, -1) == _loop_choose_entering(s, d)

    def test_ratio_test_matches_loop_with_phase1_violations(self, rng):
        seen_violations = 0
        for _ in range(15):
            p = _equality_box_problem(rng, fixed=(2,), free=(4,))
            s = _Simplex(p)
            vstate = rng.choice([AT_LOWER, AT_UPPER], s.N).astype(np.int8)
            basis = np.sort(rng.choice(s.N, s.m, replace=False))
            if not s.warm_start(basis, vstate):
                continue
            # phase 1's rule: -1 below the bounds, 1 above, 0 within FEAS_TOL
            excess = s._excess()
            viol = np.where(excess > FEAS_TOL, np.sign(s.x[s.basis] - s.lo[s.basis]), 0.0)
            assert np.array_equal(viol < 0, s.x[s.basis] < s.lo[s.basis] - FEAS_TOL)
            assert np.array_equal(viol > 0, s.x[s.basis] > s.hi[s.basis] + FEAS_TOL)
            seen_violations += int(np.count_nonzero(viol))
            _assert_ratio_tests_match(s, viol)
            _assert_ratio_tests_match(s)
        assert seen_violations > 0

    def test_ratio_test_exact_ties_from_duplicated_rows(self, rng):
        p = LpProblem(8)
        p.set_bounds(slice(0, 8), 0.0, 4.0)
        a = rng.standard_normal((3, 8))
        for r in (0, 1, 1, 2, 0, 1):     # rows 2, 4 and 5 repeat rows 1, 0 and 1
            p.add_row(a[r], "<=", 1.0)
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        rows = [row for _, row, _ in _assert_ratio_tests_match(s)]
        # a duplicated slack ties its original exactly, with the same |pivot|;
        # the lower basic index (the original's slack) always wins
        assert {0, 1} & set(rows)
        assert not {2, 4, 5} & set(rows)

    def test_ratio_test_near_ties(self, rng):
        # steps placed within a few 1e-12 of each other and of the flip, plus
        # slightly negative ones (kept, then clamped at zero) and ones below
        # -FEAS_TOL (reset to zero)
        offsets = np.array([-3e-12, -1.5e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 1.5e-12, 3e-12])
        rows_seen = set()
        for _ in range(60):
            p = _equality_box_problem(rng, m=10, n=6)
            s = _Simplex(p)
            assert s.warm_start(*crash_basis(p, ()))
            j = int(rng.integers(6))
            sigma = 1 if s.vstate[j] == AT_LOWER else -1
            delta = -sigma * (s.binv @ s.A[:, j])
            span = s.hi[j] - s.lo[j]
            base = rng.choice([0.0, span, 0.5 * span])
            if base == span and rng.random() < 0.5:
                # no row beats the flip by more than 1e-12
                steps = base + rng.choice(offsets[offsets >= -1e-12], s.m)
            else:
                steps = base + rng.choice(offsets, s.m)
                steps[rng.random(s.m) < 0.1] = -5e-10
                steps[rng.random(s.m) < 0.1] = -1e-8
            target = np.where(delta > 0, s.hi[s.basis], s.lo[s.basis])
            s.x[s.basis] = target - steps * delta
            for bland in (False, True):
                s.bland = bland
                got = s._ratio_test(j, sigma)[:3]
                assert got == _loop_ratio_test(s, j, sigma), (bland, steps.tolist())
                rows_seen.add(got[1])
        # both the flip and many different rows must have won
        assert -1 in rows_seen and len(rows_seen) >= 8

    def test_ratio_test_row_tying_the_bound_flip(self):
        # x in [0, 1] enters upward; the slack of x <= rhs blocks at step rhs
        for rhs, expected_row in ((1.0, -1), (1.0 - 5e-13, -1), (1.0 - 2e-12, 0)):
            p = LpProblem(1)
            p.set_bounds(0, 0.0, 1.0)
            p.add_row({0: 1.0}, "<=", rhs)
            s = _Simplex(p)
            assert s.warm_start(*crash_basis(p, ()))
            t, row, state, _, _ = s._ratio_test(0, 1)
            assert (t, row, state) == _loop_ratio_test(s, 0, 1)
            assert row == expected_row
            assert t == (1.0 if row < 0 else rhs)

    def test_ratio_test_unbounded_direction(self):
        p = LpProblem(2)
        p.set_bounds(0, 0.0, None)
        p.add_row({0: 1.0, 1: 1.0}, ">=", 0.0)
        p.add_row({0: 2.0}, ">=", -1.0)
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        for j, sigma in ((0, 1), (1, 1), (1, -1)):
            t, row, state, _, _ = s._ratio_test(j, sigma)
            assert (t, row, state) == _loop_ratio_test(s, j, sigma)
        assert s._ratio_test(0, 1)[:2] == (np.inf, -1)


def _loop_dual_ratio_test(s, r, below, slope):
    """Full-sort reference for the bound-flipping ratio test: (j, flips, t) or None."""
    alpha = s.binv[r] @ s.A
    d = s._price(s.c)[1]
    breakpoints = []
    for j in range(s.N):
        state = s.vstate[j]
        if state == BASIC or s.lo[j] == s.hi[j]:
            continue
        if state == FREE_ZERO:
            eligible = abs(alpha[j]) > PIVOT_TOL
        else:
            toward_zero = alpha[j] if (state == AT_UPPER) == below else -alpha[j]
            eligible = toward_zero > PIVOT_TOL
        if eligible:
            breakpoints.append((abs(d[j]) / abs(alpha[j]), j))
    breakpoints.sort()
    total = 0.0
    for pos, (t, j) in enumerate(breakpoints):
        total += abs(alpha[j]) * (s.hi[j] - s.lo[j])
        if total >= slope - FEAS_TOL:
            tied = [(-abs(alpha[k]), k, tk) for tk, k in breakpoints if abs(tk - t) <= TIE_TOL]
            _, enter, t_enter = min(tied)
            return enter, [k for _, k in breakpoints[:pos] if k != enter], t_enter
    return None


def _box_lp(rng, kind):
    """Few rows over many boxed columns, with the structure ``kind`` names.

    The rows are equalities met by a point inside the box, except under
    ``mixed`` (inequalities met with slack too) and ``infeasible`` (row 0
    asks for more than the box can reach).
    """
    m, n = int(rng.integers(2, 5)), int(rng.integers(20, 300))
    a = rng.standard_normal((m, n))
    c = rng.standard_normal(n)
    lo, hi = -rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    if kind == "tied":
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        lo, hi = -np.ones(n), np.ones(n)
    elif kind == "duplicated":
        # the second half repeats the first: same column, cost and box
        half = n // 2
        for v in (c, lo, hi):
            v[half:2 * half] = v[:half]
        a[:, half:2 * half] = a[:, :half]
    elif kind == "collinear":
        # scaled copies of columns, and a row that repeats a multiple of row 0
        half = n // 2
        a[:, half:2 * half] = -2.0 * a[:, :half]
        a[-1] = 3.0 * a[0]
    elif kind == "constant":
        # a constant design column beside the intercept: two rows of ones
        a[0], a[1] = 1.0, 2.5
    elif kind == "zero_rows":
        a[1:][rng.random(m - 1) < 0.5] = 0.0
        a[-1] = 0.0
    point = rng.uniform(lo, hi)
    if kind == "one_sided":
        # every third column loses one bound, and its cost prefers the other
        lower_only, upper_only = np.arange(0, n, 6), np.arange(3, n, 6)
        hi[lower_only], c[lower_only] = np.inf, np.abs(c[lower_only])
        lo[upper_only], c[upper_only] = -np.inf, -np.abs(c[upper_only])
    rhs = a @ point
    relations = ["="] * m
    if kind == "mixed":
        which = rng.integers(0, 3, m)
        relations = [("<=", "=", ">=")[i] for i in which]
        rhs += 0.5 * (1 - which)  # slack 0.5 on either side of the inequalities
    elif kind == "infeasible":
        rhs[0] = np.abs(a[0]) @ (hi - lo) + 1.0  # lo <= 0 <= hi, so out of reach
    p = LpProblem(n)
    p.set_objective(c)
    p.set_bounds(slice(0, n), lo, hi)
    for r in range(m):
        p.add_row(a[r], relations[r], float(rhs[r]))
    return p


BOX_KINDS = ["random", "tied", "duplicated", "collinear", "constant", "zero_rows", "mixed",
             "infeasible", "one_sided"]


class TestDualPhase:
    """Bound-flipping dual phase: HiGHS agreement, replay, entry rule, fallback."""

    @pytest.mark.parametrize("window", [1, 3, simplex.DUAL_WINDOW])
    def test_ratio_test_matches_full_sort(self, rng, monkeypatch, window):
        monkeypatch.setattr(simplex, "DUAL_WINDOW", window)
        checked = 0
        for kind in ("random", "tied", "duplicated"):
            for _ in range(6):
                p = _box_lp(rng, kind)
                p.set_bounds(np.arange(0, p.num_vars, 7), None, None)  # some free columns
                p.set_bounds(np.arange(3, p.num_vars, 11), 0.0, 0.0)   # and some fixed
                p.set_bounds(np.arange(5, p.num_vars, 13), 0.0, None)  # and one-sided ones
                p.set_bounds(np.arange(6, p.num_vars, 13), None, 0.0)
                s = _Simplex(p)
                vstate = rng.choice([AT_LOWER, AT_UPPER], s.N).astype(np.int8)
                if not s.warm_start(rng.choice(s.N, s.m, replace=False), vstate):
                    continue
                for r in range(s.m):
                    for below in (True, False):
                        slope = float(rng.choice([1e-3, 0.3, 3.0, 1e6]))
                        got = s._dual_ratio_test(r, below, slope)
                        ref = _loop_dual_ratio_test(s, r, below, slope)
                        if ref is None:
                            assert got is None
                            continue
                        assert (got[0], got[1].tolist(), got[2]) == (ref[0], ref[1], ref[2])
                        checked += 1
        assert checked > 50

    @pytest.mark.parametrize("kind", BOX_KINDS)
    def test_matches_highs(self, rng, kind):
        ran = 0
        for _ in range(12):
            p = _box_lp(rng, kind)
            sol = solve_lp(p)
            res = _highs(p)
            assert sum(sol.phase_iterations) == sol.iterations
            ran += sol.phase_iterations[0] > 0
            if kind == "infeasible":
                # row 0's violation is the largest and no long step can
                # repair it (the dual is unbounded): the dual phase stalls
                # and phase 1 certifies infeasibility
                assert res.status == 2 and sol.status == "infeasible"
                assert sol.phase_iterations[0] == 0
                continue
            assert res.status == 0 and sol.status == "optimal"
            assert sol.objective == pytest.approx(res.fun, abs=1e-8 * max(1.0, abs(res.fun)))
            assert np.max(np.abs(p.matrix @ sol.x - np.array(p.rhs))
                          * (np.array(p.relations) == "=")) <= 1e-8
        # the slack start of an equality box LP is primal infeasible with
        # every nonbasic boxed, or one-sided at the bound its cost prefers,
        # so the dual phase runs
        assert ran >= 10 or kind == "infeasible"

    def test_replays_identically(self, rng):
        for kind in ("tied", "duplicated", "collinear"):
            p = _box_lp(rng, kind)
            first, second = solve_lp(p), solve_lp(p)
            assert first.phase_iterations[0] > 0
            assert np.array_equal(first.basis, second.basis)
            assert np.array_equal(first.x, second.x)
            assert (first.iterations, first.phase_iterations, first.bound_flips) == \
                (second.iterations, second.phase_iterations, second.bound_flips)

    def test_long_steps_cut_iterations(self):
        p = _box_walk_problem()
        sol = solve_lp(p)
        assert sol.phase_iterations == (sol.iterations, 0, 0)
        assert sol.iterations <= 20 and sol.bound_flips > sol.iterations
        assert sol.objective == pytest.approx(_highs_objective(p), abs=1e-9)

    def test_primal_feasible_start_skips(self, rng, monkeypatch):
        for _ in range(10):
            p = _box_lp(rng, "random")
            first = solve_lp(p)
            p.set_objective(p.objective + 0.3 * rng.standard_normal(p.num_vars))
            warm = solve_lp(p, warm=(first.basis, first.vstate))
            assert warm.warm_used and warm.phase_iterations[:2] == (0, 0)
            monkeypatch.setattr(_Simplex, "dual_phase", lambda self, limit: "skipped")
            plain = solve_lp(p, warm=(first.basis, first.vstate))
            monkeypatch.undo()
            assert np.array_equal(warm.basis, plain.basis) and warm.iterations == plain.iterations

    def test_feasible_dual_phase_skips_phase1(self, monkeypatch):
        # a pinball dual and both portfolio duals, each from its crash, end
        # the dual phase feasible; phase 1's first check would then pass
        # without a step, so solve_lp does not call it
        rng = np.random.default_rng(100)
        x = rng.standard_normal(100)
        data = Dataset(x[:, None], x + rng.standard_normal(100) ** 2)
        pinball, crash = _dual_problem(data, -1.0 / 100, 9.0 / 100, 0.9)
        s = _Simplex(pinball)
        assert s.warm_start(*crash) and s.dual_phase(10**6) == "feasible"
        done = s.iterations
        assert s.phase1(10**6) == "feasible" and s.iterations == done
        problem = PortfolioProblem(four_asset_returns(2000, 5), FOUR_ASSET_TARGET_MEAN)

        def solves():
            return [solve_lp(pinball, warm=crash), optimize_se_dev(problem, 0.002).lp,
                    optimize_cvar_dev(problem, 0.9).lp]

        # the path that calls phase 1 after every dual phase
        dual_phase = _Simplex.dual_phase
        monkeypatch.setattr(_Simplex, "dual_phase",
                            lambda self, limit: f"{dual_phase(self, limit)}, phase 1 forced")
        forced = solves()
        monkeypatch.setattr(_Simplex, "dual_phase", dual_phase)

        def refuse(self, limit):
            raise AssertionError("phase 1 ran after a feasible dual phase")

        monkeypatch.setattr(_Simplex, "phase1", refuse)
        for got, ref in zip(solves(), forced):
            assert got.status == "optimal" and got.phase_iterations[0] > 0
            assert got.phase_iterations == ref.phase_iterations
            assert (got.iterations, got.bound_flips) == (ref.iterations, ref.bound_flips)
            assert np.array_equal(got.basis, ref.basis) and np.array_equal(got.x, ref.x)

    @staticmethod
    def _slack_start(p):
        s = _Simplex(p)
        assert s.warm_start(*crash_basis(p, ()))
        return s

    def test_unsettled_nonbasic_skips(self, rng):
        # a column bounded below only, whose cost pulls it up off its bound,
        # keeps the old path
        p = _box_lp(rng, "random")
        p.set_bounds(0, 0.0, None)
        p.set_objective(np.concatenate(([-1.0], p.objective[1:])))
        s = self._slack_start(p)
        assert s.dual_phase(10**6) == "skipped" and s.iterations == 0

    def test_free_nonbasic_with_reduced_cost_skips(self, rng):
        q = _box_lp(rng, "random")
        q.set_bounds(0, None, None)
        q.set_objective(np.concatenate(([1.0], q.objective[1:])))
        s = self._slack_start(q)
        assert s.dual_phase(10**6) == "skipped" and s.iterations == 0

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_one_sided_nonbasic_at_preferred_bound_runs(self, rng, side):
        # the slack start prices each column at its cost: a column bounded
        # on one side whose cost prefers that bound is already dual feasible
        p = _box_lp(rng, "random")
        if side == "lower":
            p.set_bounds(0, 0.0, None)
            p.set_objective(np.concatenate(([1.0], p.objective[1:])))
        else:
            p.set_bounds(0, None, 0.0)
            p.set_objective(np.concatenate(([-1.0], p.objective[1:])))
        s = self._slack_start(p)
        assert s.dual_phase(10**6) == "feasible" and s.iterations > 0
        sol = solve_lp(p)
        assert sol.phase_iterations[0] > 0 and sol.status == "optimal"
        assert sol.objective == pytest.approx(_highs_objective(p), abs=1e-8)

    @pytest.mark.parametrize("stall", ["no eligible column", "singular basis"])
    def test_forced_stall_falls_back_to_phase1(self, rng, monkeypatch, stall):
        ratio_test = _Simplex._dual_ratio_test
        calls, undone = [], []

        def stall_second(self, r, below, slope):
            calls.append(r)
            if len(calls) == 1:
                choice = ratio_test(self, r, below, slope)
                undone.append(choice[1].size)
                return choice
            if stall == "singular basis":
                raise SingularBasisError("forced")
            return None

        for kind in ("random", "duplicated", "constant"):
            p = _box_lp(rng, kind)
            calls.clear()
            monkeypatch.setattr(_Simplex, "_dual_ratio_test", stall_second)
            sol = solve_lp(p)
            monkeypatch.setattr(_Simplex, "dual_phase", lambda self, limit: "skipped")
            plain = solve_lp(p)
            monkeypatch.undo()
            assert len(calls) == 2 and sol.phase_iterations[0] == 1
            # the restart replays the path that never entered the dual phase
            assert sol.phase_iterations[1:] == plain.phase_iterations[1:]
            # the stall undoes the first step's flips, so they do not count
            assert sol.bound_flips == plain.bound_flips
            assert np.array_equal(sol.basis, plain.basis)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(_highs_objective(p), abs=1e-8)
        assert sum(undone) > 0


_PHASE1 = _Simplex.phase1


def _through_phase1(problem, warm=None, max_iterations=None, dual_tol=simplex.DUAL_TOL,
                    cutoff=None):
    """(status, iterations, phase split, basis, x) of a solve running phase 1 after the dual phase.

    Before a primal-feasible start skipped phase 1, every start the dual
    phase found feasible went through it, and phase 1 stopped at its first
    check.
    """
    s = _Simplex(problem, dual_tol=dual_tol)
    if max_iterations is None:
        max_iterations = 50_000 + 100 * s.m
    if not (warm is not None and s.warm_start(*warm)):
        s.warm_start(*crash_basis(problem, ()))
    status = s.dual_phase(max_iterations)
    dual = s.iterations
    status = _PHASE1(s, max_iterations)
    primal = s.iterations
    if status == "feasible":
        status = s.phase2(max_iterations, cutoff)
    split = (dual, primal - dual, s.iterations - primal)
    basis = None if status == "cutoff" else s.basis.copy()
    return status, s.iterations, split, basis, s.x[:s.n].copy()


class TestPhase1Skip:
    """A start the dual phase finds primal feasible goes straight to phase 2.

    With ``_Simplex.phase1`` raising, each solve must still give what it gave
    when phase 1 ran after the dual phase and stopped at its first check.
    """

    @pytest.fixture
    def splits(self, monkeypatch):
        """Route the fitters' solves through the check; collect their phase splits."""
        seen = []

        def checked(problem, warm=None, **kwargs):
            expected = _through_phase1(problem, warm, **kwargs)
            sol = solve_lp(problem, warm, **kwargs)
            assert (sol.status, sol.iterations, sol.phase_iterations) == expected[:3]
            assert np.array_equal(sol.basis, expected[3]) and np.array_equal(sol.x, expected[4])
            seen.append(sol.phase_iterations)
            return sol

        def no_phase1(self, max_iterations):
            raise AssertionError("phase 1 ran")

        monkeypatch.setattr(_Simplex, "phase1", no_phase1)
        monkeypatch.setattr(portfolio, "solve_lp", checked)
        monkeypatch.setattr(regression, "solve_lp", checked)
        return seen

    def test_sweep_duals(self, splits):
        problem = PortfolioProblem(four_asset_returns(2000, 5), FOUR_ASSET_TARGET_MEAN)
        start = None
        for x in ExperimentConfig(experiment="fig1_sweep").x_grid:  # as equivalence_sweep chains
            se = optimize_se_dev(problem, x, start)
            alpha = lower_share(se.lp.x[:problem.n], 0.0, 1.0 / problem.n)
            optimize_cvar_dev(problem, alpha, se.weights)
            start = se.weights
        assert len(splits) == 50 and all(split[1] == 0 for split in splits)
        assert sum(split[0] == 0 for split in splits) > 10  # starts that were feasible

    def test_regression_dual_with_an_optimal_crash(self, splits):
        rng = np.random.default_rng(100)  # the digest's "regression se n=100 x=0.1"
        x = rng.standard_normal(100)
        data = Dataset(x[:, None], x + rng.standard_normal(100) ** 2)
        problem, warm = regression._se_problem(data, 0.1)
        sol = regression.solve_lp(problem, warm=warm)
        assert sol.status == "optimal" and sol.phase_iterations == (0, 0, 0)

    def test_subset_child(self, splits):
        rng = np.random.default_rng(7)  # the digest's subset relaxations
        x = rng.standard_normal((300, 5))
        data = Dataset(x, x @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + rng.standard_normal(300))
        oracle = regression.SeSubsetOracle(data)
        _, root = oracle.relax((), (0, 1, 2, 3, 4), None)
        bound, child = oracle.relax((0,), (2,), root)
        _, cut = oracle.relax((0,), (2,), root, 0.5 * (root[1] + bound))
        assert [sol.phase_iterations[:2] for sol in (child[2], cut[2])] == [(0, 0), (0, 0)]
        assert child[2].phase_iterations[2] > 0 and cut[2].status == "cutoff"
        assert len(splits) == 3


class TestCertifyObjective:
    def test_relative_tolerance(self):
        certify_objective(1e6 + 1e-3, 1e6, "objective")
        with pytest.raises(LpError, match="disagrees"):
            certify_objective(1.0 + 1e-7, 1.0, "objective")


class TestRowBlocks:
    def test_add_rows_matches_dense_add_row(self, rng):
        n = 30
        block = rng.standard_normal((12, n))
        block[rng.random((12, n)) < 0.3] = 0.0
        block[:2, 0] = -0.0  # one dense row, one dict row
        rhs = rng.standard_normal(12)
        relations = [("<=", ">=", "=")[r % 3] for r in range(12)]
        one, rows = LpProblem(n), LpProblem(n)
        one.add_rows(block, relations, rhs)
        for r in range(12):
            coeffs = block[r] if r % 2 == 0 else {j: block[r, j] for j in range(n)}
            rows.add_row(coeffs, relations[r], float(rhs[r]))
        _assert_same_problem(one, rows)
        assert np.array_equal(one.matrix, block) and not np.signbit(one.matrix[block == 0.0]).any()
        for r in range(12):
            assert np.array_equal(one.row_index[r], np.flatnonzero(block[r]))
            assert np.array_equal(one.row_value[r], block[r][block[r] != 0.0])

    def test_add_rows_scalar_rhs_and_empty_block(self):
        p = LpProblem(3)
        p.add_rows(np.zeros((0, 3)), "<=", 1.0)
        assert p.num_rows == 0
        p.add_rows([[3.0, 0.0, 1.0]], "=", 4.0)
        assert p.row_index[0].tolist() == [0, 2] and p.row_value[0].tolist() == [3.0, 1.0]
        assert p.relations == ("=",) and p.rhs.tolist() == [4.0]
        with pytest.raises(AttributeError):
            p.row_index = []

    @pytest.mark.parametrize("block, relation, rhs, message", [
        ([[1.0, 2.0]], "<=", 0.0, "length"),
        ([1.0, 2.0, 3.0], "<=", 0.0, "length"),
        ([[1.0, np.nan, 0.0]], "<=", 0.0, "finite"),
        ([[1.0, 2.0, 0.0]], "<=", np.inf, "rhs must be finite"),
        ([[1.0, 2.0, 0.0]], "<", 0.0, "relation"),
        ([[1.0, 2.0, 0.0]], ["<=", "="], 0.0, "one relation per row"),
        ([[1.0, 2.0, 0.0]], "<=", [0.0, 1.0], "one rhs per row"),
    ], ids=["short_row", "one_dimensional", "nan_entry", "infinite_rhs", "unknown_relation",
            "relation_count", "rhs_count"])
    def test_add_rows_rejects(self, block, relation, rhs, message):
        p = LpProblem(3)
        p.add_row({0: 1.0}, "<=", 1.0)
        extended = p.extended
        with pytest.raises(LpError, match=message):
            p.add_rows(block, relation, rhs)
        assert p.extended is extended and p.matrix.tolist() == [[1.0, 0.0, 0.0]]
        assert p.relations == ("<=",) and p.rhs.tolist() == [1.0]

    def test_rows_held_once(self, rng):
        # matrix is a read-only view of the [A | I] the simplex reads
        p = LpProblem(5)
        p.set_objective(rng.standard_normal(5))
        p.set_bounds(slice(None), -1.0, 1.0)
        p.add_rows(rng.standard_normal((2, 5)), "<=", 1.0)
        p.add_row({1: -0.0, 4: 2.0}, "=", 0.5)
        assert np.array_equal(p.extended, np.hstack((p.matrix, np.eye(3))))
        assert not np.signbit(p.extended[p.extended == 0.0]).any()
        for array in (p.matrix, p.extended):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        assert np.shares_memory(p.matrix, p.extended)
        assert _Simplex(p).A is p.extended
        with pytest.raises(AttributeError):
            p.matrix = np.zeros((3, 5))

    def test_copy_shares_rows_until_either_adds(self, rng):
        p = LpProblem(4)
        p.add_rows(rng.standard_normal((2, 4)), ">=", 0.0)
        rows = p.extended.copy()
        q = p.copy()
        assert q.extended is p.extended
        q.add_row({0: 1.0}, "<=", 2.0)
        assert p.num_rows == 2 and np.array_equal(p.extended, rows)
        assert p.relations == (">=", ">=") and p.rhs.tolist() == [0.0, 0.0]
        assert np.array_equal(q.extended[:2, :4], rows[:, :4]) and q.num_rows == 3
        p.add_row({3: 1.0}, "=", 1.0)
        assert np.array_equal(q.matrix[2], [1.0, 0.0, 0.0, 0.0])

    def test_rows_added_after_a_solve_bind(self):
        # the [A | I] a solve reads must not outlive the rows it was built from
        p = LpProblem(2)
        p.set_objective([-1.0, -2.0])
        p.set_bounds(slice(None), 0.0, 1.0)
        p.add_row({0: 1.0}, "<=", 1.0)
        assert solve_lp(p).objective == pytest.approx(-3.0, abs=1e-12)
        p.add_rows([[1.0, 1.0], [0.0, 2.0]], "<=", [1.5, 1.0])
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(-2.0, abs=1e-12)
        assert sol.x.tolist() == pytest.approx([1.0, 0.5], abs=1e-12)

    def test_add_row_rejects_unknown_variable(self):
        p = LpProblem(3)
        for coeffs in ({3: 1.0}, {-1: 1.0}):
            with pytest.raises(LpError, match="unknown variable"):
                p.add_row(coeffs, "<=", 0.0)
        assert p.num_rows == 0

    def test_mark_binary_index_array(self):
        one, many = LpProblem(6), LpProblem(6)
        for p in (one, many):
            p.set_bounds(slice(0, 6), -2.0, 0.5)
        one.mark_binary(np.arange(1, 5))
        for j in range(1, 5):
            many.mark_binary(j)
        _assert_same_problem(one, many)

    def test_set_relation(self):
        p = LpProblem(2)
        for _ in range(4):
            p.add_row({0: 1.0}, "=", 0.0)
        p.set_relation(slice(1, None), "free")
        p.set_relation(np.array([2]), "<=")
        assert p.relations == ("=", "free", "<=", "free")
        with pytest.raises(LpError):
            p.set_relation(0, "~")

    @pytest.mark.parametrize("call, message", [
        (lambda p: p.set_relation(5, "="), "row index 5 is out of bounds .* size 3"),
        (lambda p: p.set_relation([0, -4], "free"), "row index -4 is out of bounds"),
        (lambda p: p.set_bounds(4, 0.0, 1.0), "variable index 4 is out of bounds .* size 4"),
        (lambda p: p.set_bounds(np.array([1, 9]), 0.0, [1.0, 2.0]), "variable index 9 is"),
        (lambda p: p.set_bounds([7], 0.0, 1.0), "variable index 7 is"),
        (lambda p: p.set_bounds(-5, None, 1.0), "variable index -5 is"),
        (lambda p: p.mark_binary(6), "variable index 6 is"),
        (lambda p: p.mark_binary(np.array([0, 4])), "variable index 4 is"),
        (lambda p: p.set_bounds(np.ones(5, dtype=bool), 0.0, 1.0), "variable boolean index"),
    ], ids=["relation int", "relation list", "bounds int", "bounds array", "bounds list",
            "bounds negative", "binary int", "binary array", "bounds mask"])
    def test_bad_index_is_a_typed_error_that_changes_nothing(self, call, message):
        p = LpProblem(4)
        p.set_bounds(slice(None), [-1.0, 0.0, 0.5, -2.0], [1.0, 3.0, 0.5, 2.0])
        p.add_rows(np.ones((3, 4)), ["=", "<=", ">="], 1.0)
        before = [a.copy() for a in (p.lower, p.upper, p.is_binary)] + [list(p.relations)]
        with pytest.raises(LpIndexError, match=message) as caught:
            call(p)
        assert isinstance(caught.value, IndexError) and isinstance(caught.value, LpError)
        after = [p.lower, p.upper, p.is_binary, p.relations]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


class TestFreeRows:
    def test_matches_highs_with_rows_dropped(self, rng):
        for _ in range(30):
            p = _random_bounded_feasible(rng)
            free = rng.random(p.num_rows) < 0.4
            p.set_relation(np.flatnonzero(free), "free")
            sol = solve_lp(p)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(_highs_objective(p), abs=1e-8)
            kept = LpProblem(p.num_vars)
            kept.set_objective(p.objective)
            kept.set_bounds(slice(None), p.lower, p.upper)
            for r in np.flatnonzero(~free):
                kept.add_row(p.matrix[r], p.relations[r], p.rhs[r])
            assert sol.objective == pytest.approx(solve_lp(kept).objective, abs=1e-9)
            assert np.all(np.abs(sol.duals[free]) <= simplex.DUAL_TOL)

    def test_free_row_rhs_ignored(self):
        p = LpProblem(2)
        p.set_objective([1.0, 1.0])
        p.set_bounds(slice(None), 0.0, 5.0)
        p.add_row({0: 1.0, 1: 1.0}, ">=", 2.0)
        p.add_row({0: 1.0}, "free", 1e6)
        sol = solve_lp(p)
        assert sol.status == "optimal" and sol.objective == pytest.approx(2.0)

    def test_warm_toggle_reaches_cold_optimum(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(m + 1, 20))
            a = rng.standard_normal((m, n))
            x0 = rng.uniform(-1.0, 1.0, n)
            p = LpProblem(n)
            p.set_objective(rng.standard_normal(n))
            p.set_bounds(slice(None), -2.0, 2.0)
            p.add_rows(a, "=", a @ x0)
            rows = rng.choice(m, size=max(1, m // 2), replace=False)
            first = solve_lp(p)
            assert first.status == "optimal"
            p.set_relation(rows, "free")
            # the constrained optimum is primal feasible for the relaxation
            start = _Simplex(p)
            assert start.warm_start(first.basis, first.vstate)
            assert start.phase1(100) == "feasible" and start.iterations == 0
            relaxed = solve_lp(p, warm=(first.basis, first.vstate))
            assert relaxed.status == "optimal"
            assert relaxed.objective == pytest.approx(solve_lp(p).objective, abs=1e-9)
            assert relaxed.objective <= first.objective + 1e-9
            p.set_relation(rows, "=")
            back = solve_lp(p, warm=(relaxed.basis, relaxed.vstate))
            assert back.status == "optimal"
            assert back.objective == pytest.approx(first.objective, abs=1e-9)
            assert back.objective == pytest.approx(_highs_objective(p), abs=1e-8)


class TestCutoff:
    @staticmethod
    def _freed_rows(rng):
        """A problem with half its rows freed and its constrained optimum, a feasible start."""
        m = int(rng.integers(3, 10))
        n = int(rng.integers(m + 2, 24))
        a = rng.standard_normal((m, n))
        p = LpProblem(n)
        p.set_objective(rng.standard_normal(n))
        p.set_bounds(slice(None), -2.0, 2.0)
        p.add_rows(a, "=", a @ rng.uniform(-1.0, 1.0, n))
        first = solve_lp(p)
        assert first.status == "optimal"
        p.set_relation(rng.choice(m, size=max(1, m // 2), replace=False), "free")
        return p, (first.basis, first.vstate), first.objective


    def test_cutoff_below_the_optimum_changes_nothing(self, rng):
        cases = [(_box_walk_problem(), None)]
        cases += [(_random_bounded_feasible(rng), None) for _ in range(20)]
        cases += [self._freed_rows(rng)[:2] for _ in range(20)]
        for p, warm in cases:
            sol = solve_lp(p, warm=warm)
            assert sol.status == "optimal"
            for cutoff in (-np.inf, sol.objective - 1e-6 * max(1.0, abs(sol.objective))):
                cut = solve_lp(p, warm=warm, cutoff=cutoff)
                _assert_same_solution(cut, sol)

    def test_cutoff_above_the_optimum_stops_phase_2(self, rng):
        stopped = 0
        for _ in range(40):
            p, warm, start = self._freed_rows(rng)
            sol = solve_lp(p, warm=warm)
            assert sol.status == "optimal" and sol.phase_iterations[:2] == (0, 0)
            midway = 0.5 * (sol.objective + start)
            for cutoff in (midway, start, sol.objective + 1e-9):
                cut = solve_lp(p, warm=warm, cutoff=cutoff)
                assert cut.status == "cutoff" and cut.warm_used
                assert sol.objective - 1e-9 <= cut.objective <= cutoff
                assert cut.objective == float(p.objective @ cut.x)  # as a solution reports it
                assert cut.iterations <= sol.iterations
                assert cut.phase_iterations == (0, 0, cut.iterations)
                assert cut.bound_flips <= sol.bound_flips
                assert np.all(np.abs(p.matrix @ cut.x - p.rhs)[np.array(p.relations) == "="]
                              <= simplex.ROW_TOL)
                assert np.all((cut.x >= p.lower - FEAS_TOL) & (cut.x <= p.upper + FEAS_TOL))
            stopped += solve_lp(p, warm=warm, cutoff=midway).iterations < sol.iterations
            # the start's own objective, recomputed from the basis, within rounding
            assert solve_lp(p, warm=warm, cutoff=start + 1e-9).iterations == 0
        assert stopped > 0

    def test_dual_phase_and_phase_1_are_never_cut(self):
        # a regression dual's crash start takes the dual phase; a free column
        # with a cost keeps the slack start of covering rows out of it, so
        # phase 1 runs; an infinite cutoff stops either solve at phase 2's
        # first check, and not before
        n = 200
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n)
        data = Dataset(x[:, None], x + rng.standard_normal(n) ** 2)
        dual, crash = _dual_problem(data, -1.0 / n, 9.0 / n, 0.9)
        cover = LpProblem(8)
        cover.set_objective(np.append(rng.uniform(0.5, 2.0, 7), 1.0))
        cover.set_bounds(slice(0, 7), 0.0, 2.0)
        cover.add_rows(np.column_stack((rng.uniform(0.2, 1.0, (4, 7)), np.ones(4))), ">=",
                       rng.uniform(1.0, 3.0, 4))
        for p, warm, phase in ((dual, crash, 0), (cover, None, 1)):
            sol = solve_lp(p, warm=warm)
            assert sol.status == "optimal" and sol.phase_iterations[phase] > 0
            cut = solve_lp(p, warm=warm, cutoff=np.inf)
            assert cut.status == "cutoff"
            assert cut.phase_iterations == (*sol.phase_iterations[:2], 0)
            assert cut.iterations == sum(sol.phase_iterations[:2])
            assert cut.objective >= sol.objective - 1e-9
            assert np.all((cut.x >= p.lower - FEAS_TOL) & (cut.x <= p.upper + FEAS_TOL))
            slack = p.matrix @ cut.x - p.rhs
            assert np.all(np.where(np.array(p.relations) == "=", np.abs(slack), -slack)
                          <= simplex.ROW_TOL)


class TestWarmUsed:
    @staticmethod
    def _problem():
        p = TestCrashBasis._mixed_problem()  # columns 4 and 5 are equal
        return p, solve_lp(p)

    def test_cold_solve_reports_no_warm_start(self):
        _, cold = self._problem()
        assert cold.status == "optimal" and not cold.warm_used

    def test_optimal_basis_is_used(self):
        p, cold = self._problem()
        warm = solve_lp(p, warm=(cold.basis, cold.vstate))
        assert warm.warm_used and warm.iterations == 0
        assert warm.objective == cold.objective

    # (basis, vstate edit): the slack basis is 6-8 and vstate has 9 entries
    _MALFORMED = {
        "short": ([6, 7], None),
        "long": ([6, 7, 8, 0], None),
        "repeated index": ([6, 6, 8], None),
        "singular": ([4, 5, 7], None),
        "index past N": ([6, 7, 9], None),
        "negative index": ([6, 7, -1], None),  # would wrap to the valid slack 8
        "short vstate": ([6, 7, 8], lambda v: v[:-1]),
        "long vstate": ([6, 7, 8], lambda v: np.append(v, AT_LOWER)),
        "unknown state": ([6, 7, 8], lambda v: np.where(np.arange(v.size) == 0, 4, v)),
        "negative state": ([6, 7, 8], lambda v: np.where(np.arange(v.size) == 0, -1, v)),
        "basic off the basis": ([6, 7, 8], lambda v: np.where(np.arange(v.size) == 0, BASIC, v)),
        "float vstate": ([6, 7, 8], lambda v: v.astype(float)),
    }

    @pytest.mark.parametrize("case", list(_MALFORMED), ids=list(_MALFORMED))
    def test_rejected_basis_falls_back_to_cold(self, case):
        basis, edit = self._MALFORMED[case]
        p, cold = self._problem()
        vstate = np.full(p.num_vars + p.num_rows, AT_LOWER, dtype=np.int8)
        if edit is not None:
            vstate = edit(vstate)
        sol = solve_lp(p, warm=(np.array(basis), vstate))
        assert not sol.warm_used
        assert (sol.status, sol.iterations, sol.objective) == \
            (cold.status, cold.iterations, cold.objective)

    def test_stale_basic_flag_is_rejected(self):
        # x1 is basic at the optimum; offered with a slack basis, its stale
        # BASIC flag would freeze it at 0 and report 2.5 as optimal
        p = LpProblem(3)
        p.set_objective([1.0, 2.0, 3.0])
        p.set_bounds(slice(None), 0.0, 1.0)
        p.add_row([1.0, 1.0, 1.0], ">=", 1.5)
        cold = solve_lp(p)
        assert cold.status == "optimal" and cold.objective == 2.0
        assert cold.vstate[1] == BASIC and 3 not in cold.basis
        sol = solve_lp(p, warm=(np.array([3]), cold.vstate))
        assert not sol.warm_used
        assert (sol.status, sol.iterations, sol.objective) == ("optimal", cold.iterations, 2.0)

    def test_numerically_singular_basis_is_rejected(self):
        # column 2 is a combination of columns 0 and 1 up to rounding, so the
        # basis inverts without an error, into noise
        a, b = np.array([0.1, 0.2, 0.3]), np.array([0.7, 0.11, 0.13])
        p = LpProblem(4)
        p.set_objective([-1.0, -1.0, -1.0, 1.0])
        p.set_bounds(slice(None), 0.0, 1.0)
        for row in np.column_stack((a, b, 0.3 * a + 0.7 * b, np.ones(3))):
            p.add_row(row, "<=", 1.0)
        basis, vstate = np.arange(3), np.full(7, AT_LOWER, dtype=np.int8)
        assert not _Simplex(p).warm_start(basis, vstate)
        sol = solve_lp(p, warm=(basis, vstate))
        assert not sol.warm_used and sol.status == "optimal"
        assert sol.objective == pytest.approx(_highs_objective(p), abs=1e-12)

    def test_reported_on_every_status(self):
        p = LpProblem(1)
        p.add_row({0: 1.0}, ">=", 2.0)
        p.add_row({0: 1.0}, "<=", 1.0)
        slack_basis = (np.array([1, 2]), np.array([AT_LOWER, BASIC, BASIC], dtype=np.int8))
        infeasible = solve_lp(p, warm=slack_basis)
        assert infeasible.status == "infeasible" and infeasible.warm_used
        q = LpProblem(1)
        q.set_objective([-1.0])
        q.set_bounds(0, 0, None)
        q.add_row({0: 1.0}, ">=", 0.0)
        unbounded = solve_lp(q, warm=(np.array([1]), np.array([AT_LOWER, BASIC], dtype=np.int8)))
        assert unbounded.status == "unbounded" and unbounded.warm_used
        limited = solve_lp(_box_walk_problem(), max_iterations=3)
        assert limited.status == "iteration_limit" and not limited.warm_used


def _random_stack(rng, kind):
    """(c, lo, hi, a) for a stack of 8 box LPs; ``kind`` adds ties or degeneracy."""
    k, n = int(rng.integers(1, 5)), int(rng.integers(2, 30))
    a = rng.standard_normal((8, k, n))
    c = rng.standard_normal(n)
    lo, hi = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
    if kind == "tied":
        # small integers and a common box: tied prices and tied ratios
        a = rng.integers(-1, 2, size=a.shape).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
        lo, hi = -np.ones(n), np.ones(n)
    elif kind == "degenerate":
        # a repeated row, all-zero rows, and costs in the row space of LP 0
        a[:, -1] = a[:, 0]
        a[1::2, 0] = 0.0
        c = a[0].T @ rng.standard_normal(k)
    return c, lo, hi, a


def _reverse_snap(monkeypatch, lp):
    """Reverse the snap of stack position ``lp``: its start is then dual infeasible."""
    reduced_costs = stacked._Stack._reduced_costs
    calls = []

    def reversed_snap(stack):
        d = reduced_costs(stack)
        calls.append(None)
        if len(calls) == 1:  # the snap prices the whole stack
            d[lp] = -d[lp]
        return d

    monkeypatch.setattr(stacked._Stack, "_reduced_costs", reversed_snap)


def _record_hand_offs(monkeypatch):
    """The (problem, solution) of each ``solve_lp`` call the stack makes, in order."""
    calls = []
    solve = stacked.solve_lp

    def recorded(problem, **kwargs):
        sol = solve(problem, **kwargs)
        calls.append((problem, sol))
        return sol

    monkeypatch.setattr(stacked, "solve_lp", recorded)
    return calls


class TestBoxStack:
    @pytest.mark.parametrize("kind", ["random", "tied", "degenerate"])
    def test_matches_highs_with_certified_duals(self, rng, kind):
        for _ in range(8):
            c, lo, hi, a = _random_stack(rng, kind)
            sol = solve_box_stack(c, lo, hi, a)
            for l in range(a.shape[0]):
                ref = highs_objective(c, A_eq=a[l], b_eq=np.zeros(a.shape[1]),
                                      bounds=list(zip(lo, hi)))
                assert sol.objective[l] == pytest.approx(ref, abs=1e-9)
                # the row duals attain the Lagrangian dual bound of the box LP
                reduced = c - sol.duals[l] @ a[l]
                bound = np.minimum(lo * reduced, hi * reduced).sum()
                assert bound == pytest.approx(sol.objective[l], abs=1e-9)

    def test_replays_identically(self, rng):
        c, lo, hi, a = _random_stack(rng, "tied")
        first, second = solve_box_stack(c, lo, hi, a), solve_box_stack(c, lo, hi, a)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("kind", ["random", "tied", "degenerate"])
    def test_stack_matches_lps_alone(self, rng, kind):
        # an LP's objective, duals and iterations do not depend on its stack
        for _ in range(4):
            c, lo, hi, a = _random_stack(rng, kind)
            whole = solve_box_stack(c, lo, hi, a)
            for l in range(a.shape[0]):
                alone = solve_box_stack(c, lo, hi, a[l:l + 1])
                for field, x, y in zip(stacked.StackSolution._fields, whole, alone):
                    assert np.array_equal(x[l:l + 1], y), (field, l)

    def test_refactors_once_when_steps_stay_short(self, rng, monkeypatch):
        # the final bases are refactored together, however many finish events
        calls = []
        refactor = stacked._Stack._refactor

        def counted(stack):
            calls.append(stack.pos.size)
            refactor(stack)

        monkeypatch.setattr(stacked._Stack, "_refactor", counted)
        c, lo, hi, a = _random_stack(rng, "random")
        sol = solve_box_stack(c, lo, hi, a)
        assert sol.iterations.max() < stacked.REFACTOR_EVERY
        assert np.unique(sol.iterations).size > 1  # LPs finish at different steps
        assert calls == [0]  # one refactor, after every LP left the working set

    def test_iteration_cap_raises(self, rng, monkeypatch):
        c, lo, hi, a = _random_stack(rng, "random")
        monkeypatch.setattr(stacked, "ITERATIONS_PER_VARIABLE", 0)
        with pytest.raises(StackLimitError, match="iteration cap") as info:
            solve_box_stack(c, lo, hi, a)
        assert isinstance(info.value, LpError) and info.value.index == 0

    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_window_does_not_change_results(self, rng, monkeypatch, window):
        # a window grown 4x at a time gives what a walk sorted in full gives
        for kind in ("random", "tied", "degenerate"):
            for _ in range(10):
                c, lo, hi, a = _random_stack(rng, kind)
                monkeypatch.setattr(stacked, "WINDOW", a.shape[2])
                full = solve_box_stack(c, lo, hi, a)
                monkeypatch.setattr(stacked, "WINDOW", window)
                windowed = solve_box_stack(c, lo, hi, a)
                for field, x, y in zip(stacked.StackSolution._fields, windowed, full):
                    assert np.array_equal(x, y), (kind, field)

    @pytest.mark.parametrize("which", ["c", "lo", "hi"])
    def test_rejects_mis_sized_vectors(self, which):
        shared = {"c": 1.0, "lo": -1.0, "hi": 1.0}
        shared[which] = np.full(3, shared[which])
        with pytest.raises(LpError, match="length 4"):
            solve_box_stack(shared["c"], shared["lo"], shared["hi"], np.ones((2, 1, 4)))

    def test_rejects_empty_box(self):
        with pytest.raises(LpError, match="box"):
            solve_box_stack(1.0, 0.5, 0.5, np.ones((2, 1, 3)))

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (-1.0, -0.5), ([-1.0, 0.5, -1.0], 1.0)],
                             ids=["above 0", "below 0", "one column above 0"])
    def test_rejects_a_box_without_zero(self, lo, hi):
        # a row sum of at least 1.5 cannot be 0: the dual's slope would never turn
        with pytest.raises(LpError, match="must hold 0"):
            solve_box_stack(1.0, lo, hi, np.ones((2, 1, 3)))

    @pytest.mark.parametrize("name", ["empty stack", "no rows", "(2, 3, 2)", "(1, 4, 1)",
                                      "constant design column", "duplicated columns"])
    def test_edge_shapes_match_highs(self, name):
        rng = np.random.default_rng(8)
        shape = {"empty stack": (0, 3, 5), "no rows": (3, 0, 5), "(2, 3, 2)": (2, 3, 2),
                 "(1, 4, 1)": (1, 4, 1)}.get(name, (6, 3, 14))
        a = rng.standard_normal(shape)
        if name == "constant design column":
            # the oracle's stack of centred supports; column 0 is constant, so
            # every support holding it has an all-zero row
            x = rng.standard_normal((14, 4))
            x[:, 0] = 2.5
            a = (x - x.mean(axis=0)).T[list(itertools.combinations(range(4), 3))]
            assert not np.any(a[:3, 0])
        elif name == "duplicated columns":
            a[:, :, 7] = a[:, :, 3]
            a[:, :, 11] = a[:, :, 3]
        n = a.shape[2]
        c = rng.standard_normal(n)
        lo, hi = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        sol = solve_box_stack(c, lo, hi, a)
        assert sol.objective.shape == (a.shape[0],) and sol.duals.shape == a.shape[:2]
        for l in range(a.shape[0]):
            rows = {"A_eq": a[l], "b_eq": np.zeros(a.shape[1])} if a.shape[1] else {}
            ref = highs_objective(c, bounds=list(zip(lo, hi)), **rows)
            assert sol.objective[l] == pytest.approx(ref, abs=1e-12)
            reduced = c - sol.duals[l] @ a[l]
            bound = np.minimum(lo * reduced, hi * reduced).sum()
            assert bound == pytest.approx(sol.objective[l], abs=1e-12)

    def test_only_zero_feasible(self, rng):
        # With independent columns, u = 0 is the only feasible point, and the
        # dual slope reaches exactly zero at its last breakpoint, up to rounding.
        for _ in range(40):
            n = int(rng.integers(1, 3))
            a = rng.standard_normal((8, 3, n))
            a[:, 2] = a[:, 0]
            lo = np.where(rng.random(n) < 0.5, 0.0, -rng.uniform(0.1, 1.0, n))
            sol = solve_box_stack(rng.standard_normal(n), lo, rng.uniform(0.1, 1.0, n), a)
            assert np.abs(sol.objective).max() <= 1e-12

    def test_counts_crash_fallbacks_on_a_degenerate_stack(self, rng):
        # LPs 1 and 2 have dependent rows, so every crash basis of theirs is
        # singular, and with fewer columns than rows no crash basis exists
        wide = rng.standard_normal((4, 3, 15))
        wide[1, 2] = wide[1, 0]
        wide[2, 1] = 0.0
        narrow = rng.standard_normal((2, 4, 3))
        for a, crashed in ((wide, [True, False, False, True]), (narrow, [False, False])):
            k, n = a.shape[1:]
            c = rng.standard_normal(n)
            sol = solve_box_stack(c, -0.5, 0.5, a)
            assert sol.crashed.tolist() == crashed
            for l in range(a.shape[0]):
                ref = highs_objective(c, A_eq=a[l], b_eq=np.zeros(k), bounds=[(-0.5, 0.5)] * n)
                assert sol.objective[l] == pytest.approx(ref, abs=1e-12)

    def test_phase2_pass_finishes_a_dual_infeasible_lp(self, rng, monkeypatch):
        # The snap is the only place dual feasibility comes from.  Reverse it,
        # and the dual steps end on a primal feasible basis whose reduced
        # costs are wrong: phase-2 pricing must catch that and hand the LP to
        # solve_lp, warm-started from that basis.
        _reverse_snap(monkeypatch, 0)
        handed = _record_hand_offs(monkeypatch)
        a = rng.standard_normal((1, 3, 20))
        c = rng.standard_normal(20)
        sol = solve_box_stack(c, -1.0, 1.0, a)
        assert len(handed) == 1 and handed[0][1].warm_used
        assert sol.iterations[0] > handed[0][1].iterations  # the stack's steps, then solve_lp's
        ref = highs_objective(c, A_eq=a[0], b_eq=np.zeros(3), bounds=[(-1.0, 1.0)] * 20)
        assert sol.objective[0] == pytest.approx(ref, abs=1e-12)
        reduced = c - sol.duals[0] @ a[0]
        assert -np.abs(reduced).sum() == pytest.approx(sol.objective[0], abs=1e-12)

    def test_hand_off_leaves_the_other_lps_alone(self, rng, monkeypatch):
        a = rng.standard_normal((5, 3, 20))
        c = rng.standard_normal(20)
        plain = solve_box_stack(c, -1.0, 1.0, a)
        _reverse_snap(monkeypatch, 0)
        handed = _record_hand_offs(monkeypatch)
        sol = solve_box_stack(c, -1.0, 1.0, a)
        assert len(handed) == 1 and np.array_equal(handed[0][0].matrix, a[0])
        ref = highs_objective(c, A_eq=a[0], b_eq=np.zeros(3), bounds=[(-1.0, 1.0)] * 20)
        assert sol.objective[0] == pytest.approx(ref, abs=1e-12)
        for field, x, y in zip(stacked.StackSolution._fields, sol, plain):
            assert np.array_equal(x[1:], y[1:]), field

    def test_failed_hand_off_raises_a_typed_error(self, rng, monkeypatch):
        a = rng.standard_normal((4, 3, 20))
        c = rng.standard_normal(20)
        _reverse_snap(monkeypatch, 2)
        monkeypatch.setattr(stacked, "solve_lp",
                            lambda problem, warm: LpSolution(status="iteration_limit"))
        with pytest.raises(StackError, match="iteration_limit") as info:
            solve_box_stack(c, -1.0, 1.0, a)
        assert isinstance(info.value, LpError) and info.value.index == 2

    def test_stalls_raise_a_typed_error(self, rng, monkeypatch):
        a = rng.standard_normal((3, 3, 40))
        c = rng.standard_normal(40)
        assert solve_box_stack(c, -1.0, 1.0, a).iterations.min() > 0  # no crash is optimal

        def stalled(match):
            with pytest.raises(StackStallError, match=match) as info:
                solve_box_stack(c, -1.0, 1.0, a)
            assert isinstance(info.value, LpError) and info.value.index == 0
            monkeypatch.undo()

        monkeypatch.setattr(stacked, "PIVOT_TOL", np.inf)
        stalled("no column is eligible")

        init = stacked._Stack.__init__

        def shrunk_boxes(stack, *args):
            init(stack, *args)
            stack.span = stack.span * 1e-30  # no crossing can turn the slope

        monkeypatch.setattr(stacked._Stack, "__init__", shrunk_boxes)
        stalled("slope never turns")

        walk = stacked._Stack._ratio_walk

        def lost_inverse(stack, ratio, pull, slope):
            enter = walk(stack, ratio, pull, slope)
            stack.binv[...] = 0.0
            return enter

        monkeypatch.setattr(stacked._Stack, "_ratio_walk", lost_inverse)
        stalled("vanishing pivot")


class TestBestFirst:
    """The search loop on synthetic trees, with no LP involved."""

    # node -> its expansion, in order: ("child", bound, name) is yielded and
    # ("leaf", value, name) is offered to the incumbent
    TREE = {"root": [("child", 1.0, "a"), ("child", 2.0, "b")],
            "a": [("leaf", 3.0, "a1")],
            "b": [("leaf", 2.5, "b1")]}

    @staticmethod
    def _search(tree, gap_tol=0.0, max_nodes=None, time_limit_s=60.0):
        incumbent, expanded = Incumbent(), []

        def expand(node):
            expanded.append(node)
            for kind, value, name in tree.get(node, ()):
                if kind == "leaf":
                    incumbent.offer(value, name)
                else:
                    yield value, name

        out = best_first(0.0, "root", expand, incumbent, gap_tol, max_nodes, time_limit_s)
        return out, expanded

    def test_tree_exhausted(self):
        out, expanded = self._search(self.TREE)
        assert expanded == ["root", "a", "b"]
        assert (out.status, out.x, out.objective, out.bound, out.gap, out.nodes) == \
            ("optimal", "b1", 2.5, 2.5, 0.0, 3)
        assert out.bound_history == [0.0, 0.0, 1.0, 2.0, 2.5]
        assert out.message == "0 open nodes at exit"

    def test_exhausted_without_incumbent_is_infeasible(self):
        out, _ = self._search({"root": [("child", 1.0, "a")]})
        assert (out.status, out.x, out.objective, out.nodes) == ("infeasible", None, None, 2)

    def test_gap_closed(self):
        # after a, the bound is min(b's 2, incumbent 3) = 2, a gap of 1/3
        out, expanded = self._search(self.TREE, gap_tol=0.5)
        assert expanded == ["root", "a"]
        assert (out.status, out.x, out.bound, out.gap, out.nodes) == \
            ("optimal", "a1", 2.0, (3.0 - 2.0) / 3.0, 2)
        assert out.message == "1 open nodes at exit"

    def test_node_budget_with_an_incumbent(self):
        out, expanded = self._search(self.TREE, max_nodes=2)
        assert expanded == ["root", "a"]
        assert (out.status, out.x, out.objective, out.bound, out.nodes) == \
            ("feasible", "a1", 3.0, 2.0, 2)

    def test_node_budget_without_an_incumbent(self):
        out, expanded = self._search(self.TREE, max_nodes=1)
        assert expanded == ["root"]
        assert (out.status, out.x, out.objective, out.bound, out.gap, out.nodes) == \
            ("node_limit", None, None, 1.0, np.inf, 1)

    def test_deadline_already_passed(self):
        out, expanded = self._search(self.TREE, time_limit_s=0.0)
        assert expanded == []
        assert (out.status, out.objective, out.bound, out.nodes) == ("time_limit", None, 0.0, 0)
        assert out.message == "1 open nodes at exit"

    def test_pruned_pop_is_not_counted(self):
        # b's bound is within the prune tolerance of a1, but not equal, so the
        # gap stays open and b is popped, pruned and not counted
        tree = {"root": [("child", 1.0, "a"), ("child", 1.5 - 1e-13, "b")],
                "a": [("leaf", 1.5, "a1")],
                "b": [("leaf", 0.0, "b1")]}
        out, expanded = self._search(tree)
        assert expanded == ["root", "a"]
        assert (out.status, out.x, out.nodes) == ("optimal", "a1", 2)

    def test_child_checked_when_yielded(self):
        # c comes after the leaf that it cannot beat, and is not pushed; d
        # came before the leaf, so it is pushed and is open at exit
        tree = {"root": [("child", 1.2, "d"), ("leaf", 1.0, "leaf"), ("child", 1.2, "c")]}
        out, expanded = self._search(tree)
        assert expanded == ["root"]
        assert (out.status, out.x, out.nodes) == ("optimal", "leaf", 1)
        assert out.message == "1 open nodes at exit"

    def test_offer_needs_a_strict_improvement(self):
        incumbent = Incumbent()
        assert (incumbent.value, incumbent.solution) == (np.inf, None)
        incumbent.offer(1.0, "first")
        incumbent.offer(1.0 - 1e-16, "tie")
        assert (incumbent.value, incumbent.solution) == (1.0, "first")
        incumbent.offer(0.5, "better")
        assert (incumbent.value, incumbent.solution) == (0.5, "better")


class TestSolveMip:
    def test_trivial_binary(self):
        p = LpProblem(1)
        p.set_objective([-1.0])
        p.mark_binary(0)
        p.add_row({0: 1.0}, "<=", 1.0)
        s = solve_mip(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-1.0, abs=1e-9)
        assert s.gap == pytest.approx(0.0, abs=1e-12)

    def test_knapsack_pair(self):
        p = LpProblem(2)
        p.set_objective([-1.0, -1.0])
        p.mark_binary(0)
        p.mark_binary(1)
        p.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
        s = solve_mip(p, gap_tol=0.0)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-1.0, abs=1e-9)
        assert abs(s.x.sum() - 1.0) < 1e-6

    def test_three_binary_exact(self):
        p = LpProblem(3)
        p.set_objective([1.0, 2.0, -3.0])
        for j in range(3):
            p.mark_binary(j)
        p.add_row({0: 1.0, 1: 1.0, 2: 1.0}, ">=", 2.0)
        s = solve_mip(p, gap_tol=0.0)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-2.0, abs=1e-9)

    def test_node_budget_without_incumbent(self):
        # x0 = x1 = 1/2 at the root and rounding finds no incumbent
        p = LpProblem(2)
        p.mark_binary(slice(None))
        p.add_row({0: 1.0, 1: 1.0}, "=", 1.0)
        p.add_row({0: 1.0, 1: -1.0}, "=", 0.0)
        s = solve_mip(p, max_nodes=1)
        assert (s.status, s.x, s.nodes) == ("node_limit", None, 1)
        assert solve_mip(p).status == "infeasible"

    def test_requires_binary(self):
        p = LpProblem(1)
        p.set_objective([1.0])
        p.set_bounds(0, 0, 1)
        p.add_row({0: 1.0}, ">=", 0.0)
        with pytest.raises(LpError):
            solve_mip(p)

    def test_infeasible_root(self):
        p = LpProblem(1)
        p.mark_binary(0)
        p.add_row({0: 1.0}, ">=", 2.0)
        assert solve_mip(p).status == "infeasible"

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            nb = int(rng.integers(2, 10))
            nc = int(rng.integers(0, 4))
            n = nb + nc
            p = LpProblem(n)
            p.set_objective(rng.standard_normal(n))
            for j in range(nb):
                p.mark_binary(j)
            for j in range(nb, n):
                p.set_bounds(j, -2.0, 2.0)
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((m, n))
            for r in range(m):
                p.add_row(a[r], "<=", float(rng.uniform(0.5, nb)))
            s = solve_mip(p, gap_tol=0.0)
            best = np.inf
            for assign in itertools.product((0.0, 1.0), repeat=nb):
                q = LpProblem(n)
                q.set_objective(p.objective)
                for j in range(nb):
                    q.set_bounds(j, assign[j], assign[j])
                for j in range(nb, n):
                    q.set_bounds(j, -2.0, 2.0)
                for r in range(m):
                    q.add_row(a[r], "<=", p.rhs[r])
                sq = solve_lp(q)
                if sq.status == "optimal":
                    best = min(best, sq.objective)
            if s.status == "infeasible":
                assert best == np.inf
            else:
                assert s.status == "optimal"
                assert s.objective == pytest.approx(best, abs=1e-8)
                assert s.bound <= s.objective + 1e-9

    def test_bound_history_monotone(self, rng):
        for _ in range(10):
            nb = int(rng.integers(3, 9))
            p = LpProblem(nb)
            p.set_objective(rng.standard_normal(nb))
            for j in range(nb):
                p.mark_binary(j)
            p.add_row({j: 1.0 for j in range(nb)}, "<=", float(nb // 2))
            s = solve_mip(p, gap_tol=0.0)
            hist = s.bound_history
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(hist, hist[1:]))

    def test_binary_values_near_integral(self, rng):
        p = LpProblem(4)
        p.set_objective(rng.standard_normal(4))
        for j in range(4):
            p.mark_binary(j)
        p.add_row({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, "<=", 2.0)
        s = solve_mip(p, gap_tol=0.0)
        assert s.status == "optimal"
        assert np.max(np.abs(s.x - np.round(s.x))) <= 1e-6

    def test_hint_length_checked(self):
        p = LpProblem(3)
        p.set_objective([1.0, 1.0, 1.0])
        for j in range(3):
            p.mark_binary(j)
        p.add_row({0: 1.0, 1: 1.0, 2: 1.0}, ">=", 1.0)
        assert solve_mip(p, incumbent_hint=[1.0, 0.0, 0.0]).objective == pytest.approx(1.0)
        with pytest.raises(LpError, match="hint"):
            solve_mip(p, incumbent_hint=[1.0, 0.0])

    def test_one_copy_and_one_matrix_per_solve(self, rng, monkeypatch):
        # the root, the polishes and every node share one relaxed copy and the
        # problem's own [A | I]: no solve builds another
        copies, served = [], []
        copy, init = LpProblem.copy, _Simplex.__init__

        def recording_init(s, problem, *args, **kwargs):
            init(s, problem, *args, **kwargs)
            served.append(s.A)

        monkeypatch.setattr(LpProblem, "copy", lambda self: copies.append(copy(self)) or copies[-1])
        monkeypatch.setattr(_Simplex, "__init__", recording_init)
        nodes = []
        for _ in range(5):
            nb = int(rng.integers(6, 10))
            p = LpProblem(nb)
            p.set_objective(-rng.uniform(0.5, 1.5, nb))
            p.mark_binary(slice(None))
            p.add_row(rng.uniform(0.5, 1.5, nb), "<=", nb / 3)
            copies.clear()
            served.clear()
            nodes.append(solve_mip(p, gap_tol=0.0, incumbent_hint=np.ones(nb)).nodes)
            assert len(copies) == 1 and len(served) > 1
            assert all(a is p.extended for a in served)
        assert min(nodes) > 1 and max(nodes) >= 10
