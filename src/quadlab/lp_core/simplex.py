"""Revised simplex with two-sided variable bounds.

Rows become equalities through one slack per row whose bounds encode the
relation (a ``free`` row's slack is unbounded, so the row constrains
nothing); the all-slack basis is then always structurally valid.  Phase 1
minimizes the total bound violation of the basic variables (a composite
objective, no artificial columns), which doubles as the repair step when a
warm-start basis is primally infeasible.  Phase 2 prices with Dantzig's rule
and falls back to Bland's rule once a degeneracy watchdog trips.  The basis
inverse is dense, updated in product form and refactorized periodically.

The watchdog reads the phase-2 objective, which is tracked incrementally: a
step of length t on entering column j moves it by d_j * sigma * t.  It is
recomputed from the variable values only when the basis is refactorized
(every REFACTOR_EVERY pivots; bound flips do not count), so rounding drift
in the tracked value never outlives a refactor.

One iteration is a handful of whole-array operations.  The ratio test
computes every row's blocking step at once, then resolves them as a scan
in row order would.  The best step starts as the entering variable's own
bound flip.  A row whose step beats the best by more than 1e-12 becomes
the leaving row, and its step, clamped at zero, the new best; a row within
1e-12 of the best wins the tie on the larger |pivot|, then on the lower
basic variable index (under Bland's rule on the lower index alone).  A row
tying the bound flip never blocks it.

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
    if relation == "free":
        return -np.inf, np.inf
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


# Pricing weight by state (BASIC, AT_LOWER, AT_UPPER, FREE_ZERO): the reduced
# cost times this weight is the objective decrease per unit step of a
# nonbasic column (free columns take |d| instead).
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])
TIE_TOL = 1e-12       # steps this close count as tied in the ratio test


def _tie_reach(t):
    """Largest step that can tie with or beat a best step near ``t`` >= 0.

    Covers the best step's own TIE_TOL slack, the tie window and rounding.
    """
    return t + (4 * TIE_TOL + 1e-15 * t)


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
        self._steps = np.empty(m)  # ratio-test buffer, one step per row

    # -- basis management ---------------------------------------------------

    def cold_start(self):
        self.basis = np.arange(self.n, self.N, dtype=np.intp)
        self.vstate = np.full(self.N, BASIC, dtype=np.int8)
        lo, hi = self.lo[:self.n], self.hi[:self.n]
        # Start at the bound nearer zero, ties to the lower one.
        far_lower = np.abs(lo) > np.abs(hi)
        self.vstate[:self.n] = _bound_states(np.where(far_lower, np.nan, lo), hi)
        self.binv = np.eye(self.m)
        self._sync_states()

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
        self._sync_states()
        return True

    def _sync_states(self):
        """Derive the per-state caches from (basis, vstate), then the basics."""
        self.lo_b = self.lo[self.basis]
        self.hi_b = self.hi[self.basis]
        self.price_sign = np.where(self.fixed, 0.0, _PRICE_SIGN[self.vstate])
        self.free_nonbasic = int(np.count_nonzero(self.vstate == FREE_ZERO))
        self._recompute_basics()

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
        return costs - y @ self.A

    def _choose_entering(self, d):
        """Entering column and direction (j, sigma); j = -1 when none improves.

        A column's score is its objective decrease per unit step: -d at its
        lower bound, d at its upper bound, |d| when free at zero, 0 when
        basic or fixed.  Dantzig takes the first largest score, Bland the
        first score above ``dual_tol``.
        """
        score = d * self.price_sign
        if self.free_nonbasic:
            free = self.vstate == FREE_ZERO
            score[free] = np.abs(d[free])
        if self.bland:
            j = int(np.argmax(score > self.dual_tol))
        else:
            j = int(np.argmax(score))
        if not score[j] > self.dual_tol:
            return -1, 0
        state = self.vstate[j]
        if state == AT_LOWER:
            return j, 1
        if state == AT_UPPER:
            return j, -1
        return j, 1 if d[j] < 0 else -1

    def _ratio_test(self, j, sigma, phase1_viol=None):
        """Largest step for entering j; returns (t, leaving_row, leaving_state, w, delta).

        leaving_row = -1 encodes a bound flip of the entering variable;
        t = inf encodes an unbounded direction.
        """
        w = self.binv @ self.A[:, j]
        delta = -sigma * w
        span = self.hi[j] - self.lo[j]
        flip_t = float(span) if np.isfinite(span) else np.inf
        floor, ceil = self.lo_b, self.hi_b
        if phase1_viol is not None:
            # A violated row blocks only while moving back to the bound it
            # violates: below its lower bound it acts as (-inf, lo], above
            # its upper bound as [hi, inf).
            below, above = phase1_viol < 0, phase1_viol > 0
            floor = np.where(below, -np.inf, np.where(above, self.hi_b, self.lo_b))
            ceil = np.where(below, self.lo_b, np.where(above, np.inf, self.hi_b))
        rising = delta > 0
        t = self._steps
        t.fill(np.inf)
        np.divide(np.where(rising, ceil, floor) - self.xb, delta, out=t,
                  where=np.abs(delta) > PIVOT_TOL)
        r = int(t.argmin())
        if t[r] < -FEAS_TOL:
            t[t < -FEAS_TOL] = 0.0
            r = int(t.argmin())
        t_min = float(t[r])
        if not t_min < flip_t - TIE_TOL:
            return flip_t, -1, AT_UPPER if sigma == 1 else AT_LOWER, w, delta
        best_t = max(t_min, 0.0)
        if np.count_nonzero(t <= _tie_reach(best_t)) == 1:
            leave_row = r
        else:
            best_t, leave_row = self._scan_rows(t, flip_t, delta)
        if phase1_viol is not None and phase1_viol[leave_row]:
            leave_state = AT_LOWER if phase1_viol[leave_row] < 0 else AT_UPPER
        else:
            leave_state = AT_UPPER if rising[leave_row] else AT_LOWER
        return best_t, leave_row, leave_state, w, delta

    def _scan_rows(self, t, flip_t, delta):
        """(step, leaving row) as a scan over the rows in order picks them.

        The scan keeps a best step, initially the entering bound flip
        ``flip_t``; a row more than TIE_TOL below it takes over (its step
        clamped at zero becomes the best), and a row within TIE_TOL of it
        contests the current leaving row.  The best step before row i lies
        within TIE_TOL above the clamped minimum of ``flip_t`` and the steps
        before i, so only rows within ``_tie_reach`` of that minimum can
        take over or contest, and the scan visits just those.
        """
        before = np.empty_like(t)
        before[0] = flip_t
        np.minimum(np.minimum.accumulate(t[:-1]), flip_t, out=before[1:])
        np.maximum(before, 0.0, out=before)
        rows = np.flatnonzero((t <= _tie_reach(before)) & (t < np.inf))
        best, leave = flip_t, -1
        for i, ti in zip(rows.tolist(), t[rows].tolist()):
            if ti < best - TIE_TOL:
                best, leave = max(ti, 0.0), i
            elif leave >= 0 and abs(ti - best) <= TIE_TOL and self._wins_tie(i, leave, delta):
                leave = i
        return best, leave

    def _wins_tie(self, i, k, delta):
        """Whether row i displaces row k as the leaving row at a tied step."""
        if self.bland:
            return self.basis[i] < self.basis[k]
        di, dk = abs(delta[i]), abs(delta[k])
        return di > dk + 1e-15 or (di >= dk - 1e-15 and self.basis[i] < self.basis[k])

    def _apply_step(self, j, sigma, t, leave_row, leave_state, w, delta) -> bool:
        """Move along the step; returns True when it refactorized the basis."""
        state = self.vstate[j]
        start = self.lo[j] if state == AT_LOWER else self.hi[j] if state == AT_UPPER else 0.0
        self.xb += t * delta
        if leave_row < 0:
            self.vstate[j] = flip = AT_UPPER if sigma == 1 else AT_LOWER
            self.price_sign[j] = _PRICE_SIGN[flip]
            return False
        out = self.basis[leave_row]
        self.vstate[out] = leave_state
        self.price_sign[out] = 0.0 if self.fixed[out] else _PRICE_SIGN[leave_state]
        self.basis[leave_row] = j
        self.lo_b[leave_row], self.hi_b[leave_row] = self.lo[j], self.hi[j]
        self.vstate[j] = BASIC
        self.price_sign[j] = 0.0
        if state == FREE_ZERO:
            self.free_nonbasic -= 1
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
            return True
        return False

    # -- phases -------------------------------------------------------------

    def _violations(self):
        viol = np.zeros(self.m, dtype=np.int8)
        viol[self.xb < self.lo_b - FEAS_TOL] = -1
        viol[self.xb > self.hi_b + FEAS_TOL] = 1
        return viol

    def _infeasibility(self, viol):
        f = 0.0
        below = viol == -1
        above = viol == 1
        f += float((self.lo_b[below] - self.xb[below]).sum())
        f += float((self.xb[above] - self.hi_b[above]).sum())
        return f

    def phase1(self, max_iterations) -> str:
        watchdog = max(200, 4 * self.m)
        last_f = np.inf
        costs = np.zeros(self.N)
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
            # violation costs sit on basic columns only; clear them before
            # the pivot changes the basis
            costs[self.basis] = viol
            d = self._price(costs)
            costs[self.basis] = 0.0
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
        self.obj = self._objective()
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
            if self._apply_step(j, sigma, t, leave_row, leave_state, w, delta):
                self.obj = self._objective()
            else:
                self.obj += d[j] * sigma * t
            self.iterations += 1
            if self.obj < last_obj - 1e-13 * max(1.0, abs(last_obj)):
                last_obj, self.stall = self.obj, 0
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
    a problem with the same rows (bounds and relations may differ: a
    nonbasic state that no longer fits its bounds snaps to a finite bound,
    or to free at zero); an unusable warm basis falls back to the cold
    start, and ``LpSolution.warm_used`` reports which start ran.
    Integrality flags are ignored here and must be absent.  ``dual_tol`` is
    the reduced-cost threshold: callers with many bounded columns tighten
    it, since the worst-case objective slack at optimality scales like
    (columns x ranges x dual_tol).
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
    if status == "infeasible":
        sol = LpSolution(status="infeasible", iterations=s.iterations,
                         message="phase 1 ended with positive infeasibility")
    elif status == "unbounded":
        sol = LpSolution(status="unbounded", iterations=s.iterations,
                         message="improving direction with no blocking bound")
    else:
        sol = s.solution(status, problem)
        if status == "iteration_limit":
            sol.message = f"stopped after {s.iterations} iterations"
    sol.warm_used = started
    return sol


def _solve_unconstrained(problem: LpProblem) -> LpSolution:
    """Row-free LP: each variable sits at whichever bound its cost prefers.

    A zero-cost variable sits at its finite lower bound, else its finite
    upper bound, else zero; a preferred bound that is infinite is unbounded.
    """
    c, lo, hi = problem.objective, problem.lower, problem.upper
    rest = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    x = np.where(c > 0, lo, np.where(c < 0, hi, rest))
    if not np.all(np.isfinite(x)):
        return LpSolution(status="unbounded")
    return LpSolution(status="optimal", x=x, objective=float(c @ x),
                      duals=np.zeros(0), reduced_costs=c.copy())
