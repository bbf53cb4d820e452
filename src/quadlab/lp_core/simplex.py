"""Revised simplex with two-sided variable bounds.

Rows become equalities through one slack per row whose bounds encode the
relation; the all-slack basis is then always structurally valid.  Phase 1
minimizes the total bound violation of the basic variables (a composite
objective, no artificial columns), which doubles as the repair step when a
warm-start basis is primally infeasible.  Phase 2 prices with Dantzig's rule
and falls back to Bland's rule once a degeneracy watchdog trips.  The basis
inverse is dense, updated in product form and refactorized periodically.

Pivot selection is fully deterministic: ties break toward the lowest
variable index, so identical problems replay identical pivot sequences.
"""

from __future__ import annotations

import numpy as np

from .problem import LpError, LpProblem, LpSolution, SingularBasisError

BASIC, AT_LOWER, AT_UPPER, FREE_ZERO = 0, 1, 2, 3

FEAS_TOL = 1e-9       # bound feasibility of basic variables
ROW_TOL = 1e-8        # accepted row residual at reported optimum
DUAL_TOL = 1e-9       # reduced-cost threshold
PIVOT_TOL = 1e-9      # smallest direction entry that can block the ratio test
REFACTOR_EVERY = 128


def _slack_bounds(relation: str):
    if relation == "<=":
        return 0.0, np.inf
    if relation == ">=":
        return -np.inf, 0.0
    return 0.0, 0.0


def _bound_states(lo, hi) -> np.ndarray:
    """Nonbasic state at the finite lower bound, else the finite upper, else free."""
    return np.where(np.isfinite(lo), AT_LOWER,
                    np.where(np.isfinite(hi), AT_UPPER, FREE_ZERO)).astype(np.int8)


def crash_basis(problem: LpProblem, at_upper, basic=()):
    """Warm-start pair (basis, vstate) for ``solve_lp`` from bound guesses.

    Every row's slack is basic, except that the columns listed in ``basic``
    take the places of the first rows' slacks.  Columns flagged in the
    boolean ``at_upper`` (over the leading columns) start at their upper
    bound; every other nonbasic variable, slacks included, starts at its
    finite lower bound, else at its finite upper bound, else free at zero.
    """
    n, m = problem.num_vars, problem.num_rows
    slack = np.array([_slack_bounds(rel) for rel in problem.relations]).reshape(m, 2)
    vstate = _bound_states(np.concatenate((problem.lower, slack[:, 0])),
                           np.concatenate((problem.upper, slack[:, 1])))
    vstate[np.flatnonzero(at_upper)] = AT_UPPER
    basis = np.arange(n, n + m, dtype=np.intp)
    basic = np.asarray(basic, dtype=np.intp)
    basis[:basic.size] = basic
    vstate[basis] = BASIC
    return basis, vstate


class _Simplex:
    def __init__(self, problem: LpProblem, dual_tol: float = DUAL_TOL):
        problem.validate()
        self.dual_tol = dual_tol
        m = problem.num_rows
        n = problem.num_vars
        self.m, self.n = m, n
        self.N = n + m
        self.A = np.zeros((m, self.N))
        self.A[:, :n] = problem.dense_matrix()
        self.A[:, n:] = np.eye(m)
        self.b = np.asarray(problem.rhs, dtype=float)
        self.c = np.concatenate((problem.objective, np.zeros(m)))
        self.lo = np.concatenate((problem.lower, np.zeros(m)))
        self.hi = np.concatenate((problem.upper, np.zeros(m)))
        for r, rel in enumerate(problem.relations):
            self.lo[n + r], self.hi[n + r] = _slack_bounds(rel)
        self.fixed = self.lo == self.hi
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.bland = False
        self.stall = 0

    # -- basis management ---------------------------------------------------

    def cold_start(self):
        self.basis = np.arange(self.n, self.N, dtype=np.intp)
        self.vstate = np.full(self.N, BASIC, dtype=np.int8)
        lo, hi = self.lo[:self.n], self.hi[:self.n]
        # Start at the bound nearer zero, ties to the lower one.
        far_lower = np.abs(lo) > np.abs(hi)
        self.vstate[:self.n] = _bound_states(np.where(far_lower, np.nan, lo), hi)
        self.binv = np.eye(self.m)
        self._recompute_basics()

    def warm_start(self, basis, vstate):
        basis = np.asarray(basis, dtype=np.intp)
        vstate = np.asarray(vstate, dtype=np.int8).copy()
        if basis.size != self.m or np.unique(basis).size != self.m:
            return False
        try:
            self.binv = np.linalg.inv(self.A[:, basis])
        except np.linalg.LinAlgError:
            return False
        self.basis = basis.copy()
        self.vstate = vstate
        self.vstate[basis] = BASIC
        # Nonbasic states may disagree with updated bounds (fixed binaries):
        # snap anything inconsistent to a finite bound.
        vs = self.vstate
        fin_lo, fin_hi = np.isfinite(self.lo), np.isfinite(self.hi)
        stale = (((vs == AT_LOWER) & ~fin_lo) | ((vs == AT_UPPER) & ~fin_hi)
                 | ((vs == FREE_ZERO) & (fin_lo | fin_hi)))
        vs[stale] = _bound_states(self.lo[stale], self.hi[stale])
        self._recompute_basics()
        return True

    def _nonbasic_values(self) -> np.ndarray:
        v = np.zeros(self.N)
        at_lo = self.vstate == AT_LOWER
        at_up = self.vstate == AT_UPPER
        v[at_lo] = self.lo[at_lo]
        v[at_up] = self.hi[at_up]
        return v

    def _recompute_basics(self):
        v = self._nonbasic_values()
        v[self.basis] = 0.0
        rhs = self.b - self.A @ v
        self.xb = self.binv @ rhs

    def _refactor(self):
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError(f"singular basis {sorted(self.basis.tolist())}") from exc
        self._recompute_basics()
        self.pivots_since_refactor = 0

    # -- pivoting -----------------------------------------------------------

    def _price(self, costs) -> np.ndarray:
        y = costs[self.basis] @ self.binv
        d = costs - y @ self.A
        self._y = y
        return d

    def _choose_entering(self, d):
        eligible_lo = (self.vstate == AT_LOWER) & (d < -self.dual_tol) & ~self.fixed
        eligible_up = (self.vstate == AT_UPPER) & (d > self.dual_tol) & ~self.fixed
        eligible_fr = (self.vstate == FREE_ZERO) & (np.abs(d) > self.dual_tol)
        eligible = eligible_lo | eligible_up | eligible_fr
        if not np.any(eligible):
            return -1, 0
        idx = np.nonzero(eligible)[0]
        if self.bland:
            j = idx[0]
        else:
            j = idx[np.argmax(np.abs(d[idx]))]
        if self.vstate[j] == AT_LOWER:
            sigma = 1
        elif self.vstate[j] == AT_UPPER:
            sigma = -1
        else:
            sigma = 1 if d[j] < 0 else -1
        return int(j), sigma

    def _ratio_test(self, j, sigma, phase1_viol=None):
        """Largest step for entering j; returns (t, leaving_row, leaving_state).

        leaving_row = -1 encodes a bound flip of the entering variable;
        t = inf encodes an unbounded direction.
        """
        w = self.binv @ self.A[:, j]
        delta = -sigma * w
        span = self.hi[j] - self.lo[j]
        best_t = span if np.isfinite(span) else np.inf
        leave_row, leave_state = -1, AT_UPPER if sigma == 1 else AT_LOWER

        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        xb = self.xb
        for i in range(self.m):
            di = delta[i]
            if abs(di) <= PIVOT_TOL:
                continue
            if phase1_viol is not None and phase1_viol[i] == -1:
                # below its lower bound: blocking only while moving up to it
                if di > 0:
                    t = (lo_b[i] - xb[i]) / di
                    state = AT_LOWER
                else:
                    continue
            elif phase1_viol is not None and phase1_viol[i] == 1:
                if di < 0:
                    t = (hi_b[i] - xb[i]) / di
                    state = AT_UPPER
                else:
                    continue
            elif di > 0:
                if not np.isfinite(hi_b[i]):
                    continue
                t = (hi_b[i] - xb[i]) / di
                state = AT_UPPER
            else:
                if not np.isfinite(lo_b[i]):
                    continue
                t = (lo_b[i] - xb[i]) / di
                state = AT_LOWER
            if t < -FEAS_TOL:
                t = 0.0
            if t < best_t - 1e-12:
                best_t, leave_row, leave_state = max(t, 0.0), i, state
            elif leave_row >= 0 and abs(t - best_t) <= 1e-12:
                # deterministic tie-break: larger pivot, then lower index
                if self.bland:
                    if self.basis[i] < self.basis[leave_row]:
                        leave_row, leave_state = i, state
                elif abs(delta[i]) > abs(delta[leave_row]) + 1e-15 or (
                    abs(delta[i]) >= abs(delta[leave_row]) - 1e-15
                    and self.basis[i] < self.basis[leave_row]
                ):
                    leave_row, leave_state = i, state
        return best_t, leave_row, leave_state, w, delta

    def _apply_step(self, j, sigma, t, leave_row, leave_state, w, delta):
        start = {AT_LOWER: self.lo[j], AT_UPPER: self.hi[j], FREE_ZERO: 0.0}[self.vstate[j]]
        self.xb = self.xb + t * delta
        if leave_row < 0:
            self.vstate[j] = AT_UPPER if sigma == 1 else AT_LOWER
            return
        out = self.basis[leave_row]
        self.vstate[out] = leave_state
        self.basis[leave_row] = j
        self.vstate[j] = BASIC
        self.xb[leave_row] = start + sigma * t
        piv = w[leave_row]
        if abs(piv) < 1e-12:
            raise SingularBasisError(f"vanishing pivot on row {leave_row}")
        row = self.binv[leave_row] / piv
        self.binv -= np.outer(w, row)
        self.binv[leave_row] = row
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self._refactor()

    # -- phases -------------------------------------------------------------

    def _violations(self):
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        viol = np.zeros(self.m, dtype=np.int8)
        viol[self.xb < lo_b - FEAS_TOL] = -1
        viol[self.xb > hi_b + FEAS_TOL] = 1
        return viol

    def _infeasibility(self, viol):
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        f = 0.0
        below = viol == -1
        above = viol == 1
        f += float((lo_b[below] - self.xb[below]).sum())
        f += float((self.xb[above] - hi_b[above]).sum())
        return f

    def phase1(self, max_iterations) -> str:
        watchdog = max(200, 4 * self.m)
        last_f = np.inf
        while True:
            viol = self._violations()
            f = self._infeasibility(viol)
            if f <= FEAS_TOL * max(1.0, self.m):
                return "feasible"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            if f < last_f - 1e-13:
                last_f, self.stall = f, 0
            else:
                self.stall += 1
                if self.stall > watchdog:
                    self.bland = True
            costs = np.zeros(self.N)
            costs[self.basis[viol == -1]] = -1.0
            costs[self.basis[viol == 1]] = 1.0
            d = self._price(costs)
            j, sigma = self._choose_entering(d)
            if j < 0:
                return "infeasible"
            t, leave_row, leave_state, w, delta = self._ratio_test(j, sigma, phase1_viol=viol)
            if not np.isfinite(t):
                raise LpError("phase-1 direction unbounded; numerical breakdown")
            self._apply_step(j, sigma, t, leave_row, leave_state, w, delta)
            self.iterations += 1

    def phase2(self, max_iterations) -> str:
        watchdog = max(200, 4 * self.m)
        last_obj = np.inf
        self.stall = 0
        while True:
            if self.iterations >= max_iterations:
                return "iteration_limit"
            d = self._price(self.c)
            j, sigma = self._choose_entering(d)
            if j < 0:
                return "optimal"
            t, leave_row, leave_state, w, delta = self._ratio_test(j, sigma)
            if not np.isfinite(t):
                return "unbounded"
            self._apply_step(j, sigma, t, leave_row, leave_state, w, delta)
            self.iterations += 1
            obj = self._objective()
            if obj < last_obj - 1e-13 * max(1.0, abs(last_obj)):
                last_obj, self.stall = obj, 0
            else:
                self.stall += 1
                if self.stall > watchdog:
                    self.bland = True

    # -- reporting ----------------------------------------------------------

    def _values(self) -> np.ndarray:
        v = self._nonbasic_values()
        v[self.basis] = self.xb
        return v

    def _objective(self) -> float:
        return float(self.c @ self._values())

    def solution(self, status: str, problem: LpProblem) -> LpSolution:
        if status in ("infeasible",):
            return LpSolution(status=status, iterations=self.iterations)
        v = self._values()
        resid = self.A @ v - self.b
        if status == "optimal" and np.max(np.abs(resid), initial=0.0) > ROW_TOL:
            self._refactor()
            v = self._values()
            resid = self.A @ v - self.b
            if np.max(np.abs(resid), initial=0.0) > ROW_TOL:
                raise SingularBasisError("row residuals exceed tolerance after refactorization")
        y = self.c[self.basis] @ self.binv
        reduced = problem.objective - y @ self.A[:, : self.n]
        return LpSolution(
            status=status,
            x=v[: self.n].copy(),
            objective=float(problem.objective @ v[: self.n]),
            iterations=self.iterations,
            duals=y.copy(),
            reduced_costs=reduced,
            basis=self.basis.copy(),
            vstate=self.vstate.copy(),
        )


def solve_lp(problem: LpProblem, warm=None, max_iterations: int | None = None,
             dual_tol: float = DUAL_TOL) -> LpSolution:
    """Solve an LP to optimality with deterministic pivoting.

    ``warm`` is an optional (basis, vstate) pair from a previous solution of
    a problem with the same rows (bounds may differ); an unusable warm basis
    silently falls back to the cold start.  Integrality flags are ignored
    here and must be absent.  ``dual_tol`` is the reduced-cost threshold:
    callers with many bounded columns tighten it, since the worst-case
    objective slack at optimality scales like (columns x ranges x dual_tol).
    """
    if np.any(problem.is_binary):
        raise LpError("solve_lp does not accept integrality flags; use solve_mip")
    if problem.num_rows == 0:
        return _solve_unconstrained(problem)
    s = _Simplex(problem, dual_tol=dual_tol)
    if max_iterations is None:
        max_iterations = 50_000 + 100 * s.m
    started = False
    if warm is not None:
        basis, vstate = warm
        started = s.warm_start(basis, vstate)
    if not started:
        s.cold_start()
    status = s.phase1(max_iterations)
    if status == "feasible":
        status = s.phase2(max_iterations)
    elif status == "infeasible":
        return LpSolution(status="infeasible", iterations=s.iterations,
                          message="phase 1 ended with positive infeasibility")
    if status == "iteration_limit":
        sol = s.solution("iteration_limit", problem)
        sol.message = f"stopped after {s.iterations} iterations"
        return sol
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=s.iterations,
                          message="improving direction with no blocking bound")
    return s.solution(status, problem)


def _solve_unconstrained(problem: LpProblem) -> LpSolution:
    """Row-free LP: each variable sits at whichever bound its cost prefers."""
    c = problem.objective
    x = np.zeros(problem.num_vars)
    for j, cj in enumerate(c):
        if cj > 0:
            if not np.isfinite(problem.lower[j]):
                return LpSolution(status="unbounded")
            x[j] = problem.lower[j]
        elif cj < 0:
            if not np.isfinite(problem.upper[j]):
                return LpSolution(status="unbounded")
            x[j] = problem.upper[j]
        else:
            if np.isfinite(problem.lower[j]):
                x[j] = problem.lower[j]
            elif np.isfinite(problem.upper[j]):
                x[j] = problem.upper[j]
    return LpSolution(status="optimal", x=x, objective=float(c @ x),
                      duals=np.zeros(0), reduced_costs=c.copy())
