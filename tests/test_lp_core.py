import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from quadlab.lp_core import (
    LpError,
    LpProblem,
    StackLimitError,
    certify_objective,
    crash_basis,
    dump_problem,
    solve_box_stack,
    solve_lp,
    solve_mip,
)
from quadlab.lp_core import simplex, stacked
from quadlab.lp_core.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FEAS_TOL,
    FREE_ZERO,
    PIVOT_TOL,
    REFACTOR_EVERY,
    _Simplex,
)


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
    """Five equality rows over 300 [0, 1] columns; phase 2 needs 600 pivots."""
    rng = np.random.default_rng(2)
    m, n = 5, 300
    p = LpProblem(n)
    p.set_objective(rng.standard_normal(n))
    p.set_bounds(slice(0, n), 0.0, 1.0)
    a = rng.standard_normal((m, n))
    for r in range(m):
        p.add_row(a[r], "=", float(a[r].sum() / 2))
    return p


def _highs_objective(problem):
    a = problem.dense_matrix()
    rel = np.array(problem.relations)
    rhs = np.array(problem.rhs)
    res = linprog(problem.objective, A_ub=np.vstack((a[rel == "<="], -a[rel == ">="])),
                  b_ub=np.concatenate((rhs[rel == "<="], -rhs[rel == ">="])),
                  A_eq=a[rel == "="], b_eq=rhs[rel == "="],
                  bounds=list(zip(problem.lower, problem.upper)), method="highs")
    assert res.status == 0
    return res.fun


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
        # 600 degenerate-heavy phase-2 pivots: the tracked objective stalls
        # long enough to switch to Bland's rule, which then terminates
        p = _box_walk_problem()
        s = _Simplex(p)
        s.cold_start()
        assert s.phase1(10**6) == "feasible"
        assert not s.bland
        assert s.phase2(10**6) == "optimal"
        assert s.bland
        assert s.obj == pytest.approx(_highs_objective(p), abs=1e-9)

    @pytest.mark.parametrize("every", [REFACTOR_EVERY, 3])
    def test_tracked_objective_resyncs_only_at_refactor(self, monkeypatch, every):
        # a short refactor period puts bound flips right after refactors
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", every)
        p = _box_walk_problem()
        s = _Simplex(p)
        s.cold_start()
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
            a = p.dense_matrix()
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
        assert dump_problem(one) == dump_problem(many)

    def test_one_empty_interval_among_many_raises(self):
        lo, hi = np.zeros(6), np.ones(6)
        hi[3] = -1.0
        with pytest.raises(LpError, match="variable 4"):
            LpProblem(8).set_bounds(slice(1, 7), lo, hi)
        with pytest.raises(LpError, match="variable 2"):
            LpProblem(3).set_bounds(2, 1.0, 0.0)


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
        basis, vstate = crash_basis(p, at_upper, basic=[5])
        # column 5 takes the place of row 0's slack (variable 6)
        assert basis.tolist() == [5, 7, 8]
        assert vstate.tolist() == [AT_LOWER, FREE_ZERO, AT_LOWER, AT_UPPER, AT_UPPER,
                                   BASIC, AT_UPPER, BASIC, BASIC]

    def test_slack_basis_by_default(self):
        p = self._mixed_problem()
        basis, vstate = crash_basis(p, np.zeros(6, dtype=bool))
        assert basis.tolist() == [6, 7, 8]
        assert vstate[:6].tolist() == [AT_LOWER, FREE_ZERO, AT_LOWER, AT_UPPER, AT_LOWER,
                                       AT_LOWER]

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


def _loop_cold_states(lo, hi):
    """Per-variable reference for the cold start's nonbasic states."""
    out = []
    for a, b in zip(lo, hi):
        if np.isfinite(a) and (not np.isfinite(b) or abs(a) <= abs(b)):
            out.append(AT_LOWER)
        elif np.isfinite(b):
            out.append(AT_UPPER)
        else:
            out.append(FREE_ZERO)
    return out


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

    def test_cold_start_matches_loop(self, rng):
        p = self._all_bound_kinds(rng)
        s = _Simplex(p)
        s.cold_start()
        assert s.vstate[:p.num_vars].tolist() == _loop_cold_states(p.lower, p.upper)

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


def _loop_choose_entering(s, d):
    """Per-mask reference for the entering choice: (j, sigma), j = -1 if none."""
    eligible_lo = (s.vstate == AT_LOWER) & (d < -s.dual_tol) & ~s.fixed
    eligible_up = (s.vstate == AT_UPPER) & (d > s.dual_tol) & ~s.fixed
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
    """Row-by-row reference for the ratio test: (t, leave_row, leave_state)."""
    delta = -sigma * (s.binv @ s.A[:, j])
    span = s.hi[j] - s.lo[j]
    best_t = span if np.isfinite(span) else np.inf
    leave_row, leave_state = -1, AT_UPPER if sigma == 1 else AT_LOWER
    lo_b, hi_b, xb = s.lo[s.basis], s.hi[s.basis], s.xb
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
        if t < -FEAS_TOL:
            t = 0.0
        if t < best_t - 1e-12:
            best_t, leave_row, leave_state = max(t, 0.0), i, state
        elif leave_row >= 0 and abs(t - best_t) <= 1e-12:
            if s.bland:
                if s.basis[i] < s.basis[leave_row]:
                    leave_row, leave_state = i, state
            elif abs(delta[i]) > abs(delta[leave_row]) + 1e-15 or (
                abs(delta[i]) >= abs(delta[leave_row]) - 1e-15
                and s.basis[i] < s.basis[leave_row]
            ):
                leave_row, leave_state = i, state
    return best_t, leave_row, leave_state


def _entering_moves(s):
    """Every (j, sigma) a nonbasic, non-fixed column can enter with."""
    for j in np.flatnonzero((s.vstate != BASIC) & ~s.fixed):
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
            viol = s._violations()
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
        s.cold_start()
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
            s.cold_start()
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
            s.xb = target - steps * delta
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
            s.cold_start()
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
        s.cold_start()
        for j, sigma in ((0, 1), (1, 1), (1, -1)):
            t, row, state, _, _ = s._ratio_test(j, sigma)
            assert (t, row, state) == _loop_ratio_test(s, j, sigma)
        assert s._ratio_test(0, 1)[:2] == (np.inf, -1)


class TestCertifyObjective:
    def test_relative_tolerance(self):
        certify_objective(1e6 + 1e-3, 1e6, "objective")
        with pytest.raises(LpError, match="disagrees"):
            certify_objective(1.0 + 1e-7, 1.0, "objective")


class TestDump:
    def test_round_trip_text(self):
        p = LpProblem(2)
        p.set_objective([1.5, 0.0])
        p.set_bounds(0, 0, 1)
        p.add_row({0: 2.0, 1: -1.0}, "<=", 3.0)
        text = dump_problem(p)
        assert "2.0" in text and "<=" in text and "bound 0" in text


class TestRowBlocks:
    def test_add_rows_matches_dense_add_row(self, rng):
        n, width = 30, 4
        index = np.array([rng.choice(n, width, replace=False) for _ in range(12)])
        value = rng.standard_normal((12, width))
        value[rng.random((12, width)) < 0.3] = 0.0
        value[0, 0] = -0.0
        rhs = rng.standard_normal(12)
        block, rows = LpProblem(n), LpProblem(n)
        block.add_rows(index, value, ">=", rhs)
        for r in range(12):
            dense = np.zeros(n)
            dense[index[r]] = value[r]
            rows.add_row(dense, ">=", float(rhs[r]))
        assert dump_problem(block) == dump_problem(rows)
        assert np.array_equal(block.dense_matrix(), rows.dense_matrix())

    def test_add_rows_scalar_rhs_and_empty_block(self):
        p = LpProblem(3)
        p.add_rows(np.zeros((0, 2), dtype=int), np.zeros((0, 2)), "<=", 1.0)
        assert p.num_rows == 0
        p.add_rows([[2, 0]], [[1.0, 3.0]], "=", 4.0)
        assert p.row_index[0].tolist() == [0, 2] and p.row_value[0].tolist() == [3.0, 1.0]
        assert p.relations == ["="] and p.rhs == [4.0]

    @pytest.mark.parametrize("index, value, relation, rhs, message", [
        ([[0, 0]], [[1.0, 2.0]], "<=", 0.0, "twice"),
        ([[0, 3]], [[1.0, 2.0]], "<=", 0.0, "unknown variable"),
        ([[0, 1]], [[1.0]], "<=", 0.0, "shapes"),
        ([[0, 1]], [[1.0, np.nan]], "<=", 0.0, "finite"),
        ([[0, 1]], [[1.0, 2.0]], "<=", np.inf, "rhs"),
        ([[0, 1]], [[1.0, 2.0]], "<", 0.0, "relation"),
    ])
    def test_add_rows_rejects(self, index, value, relation, rhs, message):
        p = LpProblem(3)
        with pytest.raises(LpError, match=message):
            p.add_rows(index, value, relation, rhs)
        assert p.num_rows == 0

    def test_mark_binary_index_array(self):
        one, many = LpProblem(6), LpProblem(6)
        for p in (one, many):
            p.set_bounds(slice(0, 6), -2.0, 0.5)
        one.mark_binary(np.arange(1, 5))
        for j in range(1, 5):
            many.mark_binary(j)
        assert dump_problem(one) == dump_problem(many)

    def test_set_relation(self):
        p = LpProblem(2)
        for _ in range(4):
            p.add_row({0: 1.0}, "=", 0.0)
        p.set_relation(slice(1, None), "free")
        p.set_relation(np.array([2]), "<=")
        assert p.relations == ["=", "free", "<=", "free"]
        with pytest.raises(LpError):
            p.set_relation(0, "~")


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
                kept.add_row(p.dense_matrix()[r], p.relations[r], p.rhs[r])
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
            p.add_rows(np.tile(np.arange(n), (m, 1)), a, "=", a @ x0)
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

    @pytest.mark.parametrize("basis", [[6, 7], [6, 7, 8, 0], [6, 6, 8], [4, 5, 7]],
                             ids=["short", "long", "repeated index", "singular"])
    def test_rejected_basis_falls_back_to_cold(self, basis):
        p, cold = self._problem()
        vstate = np.full(p.num_vars + p.num_rows, AT_LOWER, dtype=np.int8)
        sol = solve_lp(p, warm=(np.array(basis), vstate))
        assert not sol.warm_used
        assert (sol.status, sol.iterations, sol.objective) == \
            (cold.status, cold.iterations, cold.objective)

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


class TestBoxStack:
    @pytest.mark.parametrize("kind", ["random", "tied", "degenerate"])
    def test_matches_highs_with_certified_duals(self, rng, kind):
        for _ in range(8):
            c, lo, hi, a = _random_stack(rng, kind)
            sol = solve_box_stack(c, lo, hi, a)
            for l in range(a.shape[0]):
                res = linprog(c, A_eq=a[l], b_eq=np.zeros(a.shape[1]),
                              bounds=list(zip(lo, hi)), method="highs")
                assert res.status == 0
                assert sol.objective[l] == pytest.approx(res.fun, abs=1e-9)
                # the row duals attain the Lagrangian dual bound of the box LP
                reduced = c - sol.duals[l] @ a[l]
                bound = np.minimum(lo * reduced, hi * reduced).sum()
                assert bound == pytest.approx(sol.objective[l], abs=1e-9)

    def test_replays_identically(self, rng):
        c, lo, hi, a = _random_stack(rng, "tied")
        first, second = solve_box_stack(c, lo, hi, a), solve_box_stack(c, lo, hi, a)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_iteration_cap_raises(self, rng, monkeypatch):
        c, lo, hi, a = _random_stack(rng, "random")
        monkeypatch.setattr(stacked, "ITERATIONS_PER_VARIABLE", 0)
        with pytest.raises(StackLimitError, match="iteration cap") as info:
            solve_box_stack(c, lo, hi, a)
        assert isinstance(info.value, LpError) and info.value.index == 0

    def test_rejects_empty_box(self):
        with pytest.raises(LpError, match="box"):
            solve_box_stack(1.0, 0.5, 0.5, np.ones((2, 1, 3)))


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
