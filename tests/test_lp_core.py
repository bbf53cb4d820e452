import itertools

import numpy as np
import pytest

from quadlab.lp_core import (
    LpError,
    LpProblem,
    certify_objective,
    crash_basis,
    dump_problem,
    solve_lp,
    solve_mip,
)
from quadlab.lp_core.simplex import AT_LOWER, AT_UPPER, BASIC, FREE_ZERO, _Simplex


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
