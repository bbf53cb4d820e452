"""Revised simplex with two-sided variable bounds.

Rows become equalities through one slack per row whose bounds encode the
relation (a ``free`` row's slack is unbounded, so the row constrains
nothing); the all-slack basis is then always structurally valid.  Phase 1
minimizes the total bound violation of the basic variables (a composite
objective, no artificial columns), which doubles as the repair step when a
warm-start basis is primally infeasible.  Phase 2 prices with Dantzig's rule
and falls back to Bland's rule once a degeneracy watchdog trips; a caller's
objective cutoff stops it early (see ``solve_lp``).  The basis inverse is
dense, updated in product form and refactorized periodically.

The state is the ``basis``, each variable's bound state ``vstate``, the
inverse ``binv`` and one value vector ``x`` over all n + m variables.  A
nonbasic entry of ``x`` holds its exact bound (0 when free) and is written
whenever its state changes; the basic entries move with each step and are
recomputed from b - A x at each refactorization.

Columns are classified once per problem, not once per solve: the
``LpProblem`` keeps the slack-extended bounds and each column's kind
(free, lower end only, upper end only, boxed or fixed), and refreshes
only the columns a write touches.  A solve reads them as they stand and
takes each column's span (hi - lo, infinite unless both ends are finite)
from them.  The start, the dual phase's snap, bound flips and both ratio
tests read these classes instead of testing the bounds again.  A start
is synced once: ``warm_start`` checks the offered pair, a crash's or a
caller's (the basis's length, range and repeats, and its condition
estimate), and settles every nonbasic state and its pricing sign in one
table lookup on (state, kind); a crash only picks the basis.  It then derives ``x`` and
the basics.  After that only the entries whose state changes are
rewritten: the snap and the long steps flip columns in place, and the
basics follow by b - A x (the snap) or by one update (a long step).  The
phase-2 reduced costs are priced once per basis: a bound flip keeps them,
a pivot or a refactorization drops them, so the first dual step reuses
the snap's and the solution reports phase 2's last pricing.  ``A`` is the
problem's own read-only [A | I].

The watchdog reads the phase-2 objective, which is tracked incrementally: a
step of length t on entering column j moves it by d_j * sigma * t.  It
counts the iterations since the objective last fell by more than 1e-13
(relative) below its best value, the start's included, and switches to
Bland's rule after max(200, 4m) of them.  It is
recomputed from the variable values only when the basis is refactorized
(every REFACTOR_EVERY pivots; bound flips do not count), so rounding drift
in the tracked value never outlives a refactor.

One iteration is a handful of whole-array operations.  The ratio test
computes every row's blocking step at once.  The entering variable's own
bound flip wins unless some row's step is more than TIE_TOL below it, so
a row tying the bound flip never blocks it.  Otherwise the step is the
smallest row step, clamped at zero, and ``leaving_row`` picks among the
rows within TIE_TOL of it: the largest |pivot| (within 1e-15, and not
under Bland's rule), then the lowest basic variable index.  The rule does
not depend on row order.

A dual phase runs first when the start is primal infeasible and every
nonbasic variable is boxed, or dual feasible already (fixed, one-sided at
the bound its reduced cost prefers, or free with a zero reduced cost), as
the crash starts of the regression and portfolio duals are.  Each boxed
nonbasic snaps to the bound its reduced-cost sign prefers, which makes the
start dual feasible, and a dual simplex with a
bound-flipping (long-step) ratio test restores primal feasibility: the
leaving row is the largest bound violation (lowest row on ties), and one
iteration crosses every breakpoint the dual slope allows, flipping those
columns between their bounds in a single update of the basic values.
Phase 2 then runs as from any start, so its pricing still certifies
optimality.  Phase 1 runs only when the dual phase did not end feasible:
after one that did, phase 1's first check would pass.  A start that is
primal feasible already ends the dual phase at its first check, as
"feasible", so it goes straight to phase 2 with its pivot sequence
unchanged.  When the dual phase stalls (no eligible column for a violated
row, a vanishing pivot, or a watchdog on steps that do not move the duals)
it restores the caller's start and phase 1 takes over.

Pivot selection is fully deterministic: ties break toward the lowest
variable index, so identical problems replay identical pivot sequences.
"""

from __future__ import annotations

import numpy as np

from .problem import BOXED, FIXED, LpError, LpProblem, LpSolution, SingularBasisError

BASIC, AT_LOWER, AT_UPPER, FREE_ZERO = 0, 1, 2, 3

FEAS_TOL = 1e-9       # bound feasibility of basic variables
ROW_TOL = 1e-8        # accepted row residual at reported optimum
DUAL_TOL = 1e-9       # reduced-cost threshold
PIVOT_TOL = 1e-9      # smallest direction entry that can block the ratio test
REFACTOR_EVERY = 128
DUAL_WINDOW = 64      # breakpoints sorted first in a dual ratio test; grows 4x
CRASH_POOL = 8        # candidate columns a crash reduces per row
CRASH_PIVOT_SHARE = 0.1  # smallest entry a crash candidate enters on, over its largest


# Pricing weight by state (BASIC, AT_LOWER, AT_UPPER, FREE_ZERO): the reduced
# cost times this weight is the objective decrease per unit step of a
# nonbasic column that is not fixed (free columns take |d| instead).
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])

_NOT_A_STATE = FREE_ZERO + 1
# _WARM_STATE[5 * state + kind] is the state a warm start installs on a
# column of that kind (``LpProblem``'s FREE, LOWER, UPPER, BOXED, FIXED):
# the offered one if it fits the finite ends, else the default: the finite
# lower bound, else the finite upper bound, else free at zero.  BASIC is
# valid only on the basis, which is written afterwards; the last entry
# stands for every code past FREE_ZERO and the first for every negative one
# (``take`` clips to them).  _WARM_SIGN holds the pricing sign of the state
# installed: 0 on a fixed column, which never enters.
_WARM_STATE = np.array([
    # kind: free    lower     upper     boxed     fixed
    _NOT_A_STATE, _NOT_A_STATE, _NOT_A_STATE, _NOT_A_STATE, _NOT_A_STATE,  # BASIC
    FREE_ZERO, AT_LOWER, AT_UPPER, AT_LOWER, AT_LOWER,                      # AT_LOWER
    FREE_ZERO, AT_LOWER, AT_UPPER, AT_UPPER, AT_UPPER,                      # AT_UPPER
    FREE_ZERO, AT_LOWER, AT_UPPER, AT_LOWER, AT_LOWER,                      # FREE_ZERO
    _NOT_A_STATE], dtype=np.int8)
_WARM_SIGN = _PRICE_SIGN.take(_WARM_STATE, mode="clip")  # _NOT_A_STATE takes FREE_ZERO's 0
_WARM_SIGN[FIXED::5] = 0.0


def crash_pool(key, rows: int) -> np.ndarray:
    """Indices of the CRASH_POOL * rows smallest ``key`` entries by (key, index): all a crash reads."""
    count = min(key.size, CRASH_POOL * rows)
    near = (key <= (np.partition(key, count - 1)[count - 1] if count else -np.inf)).nonzero()[0]
    return near[key[near].argsort(kind="stable")[:count]]


def lower_share(u, lo: float, hi: float) -> float:
    """Share of box multipliers u in [lo, hi] at their lower end, sum (hi - u)/(hi - lo) / n.

    Each u within FEAS_TOL of an end (a degenerate basic one) is taken at
    it, so it adds exactly 0 or 1; the share is clamped to [0, 1].  On the
    regression and portfolio duals this is the level at which a
    part-balancing optimum is pinball or tail-average optimal too.
    """
    u = np.where(hi - u <= FEAS_TOL, hi, np.where(u - lo <= FEAS_TOL, lo, u))
    return min(max(float(np.sum((hi - u) / (hi - lo))) / u.size, 0.0), 1.0)


def crash_basis(problem: LpProblem, at_upper, order=()):
    """Warm-start pair (basis, vstate) for ``solve_lp`` from bound guesses.

    ``order`` ranks candidate basic columns of the slack-extended variable
    vector.  Gaussian elimination takes its first CRASH_POOL * rows in turn
    until every row is held: each enters on the open row of its largest
    reduced entry if that entry is at least CRASH_PIVOT_SHARE of the
    column's largest, and is skipped as dependent otherwise; other rows
    keep their slacks.  It reads only ``problem.extended``, so
    ``set_bounds`` and ``set_relation`` leave the pair valid: picks are
    BASIC, columns flagged in ``at_upper`` AT_UPPER and the rest
    FREE_ZERO, and ``warm_start`` settles each state to the column's
    bounds (FREE_ZERO to its finite lower bound, else its finite upper
    bound, else free at zero).

    The elimination is left-looking, in Python floats: each candidate
    column is reduced by the row swaps and multipliers of the picks before
    it, so a skipped column leaves the earlier picks as they were and
    needs no refactorization.  Ties between entries go to the first open
    row.  A candidate costs O(rows^2) interpreted steps, which at the few
    rows of the regression, portfolio and subset duals beats a LAPACK
    call: about 30 us per crash at 1 to 8 rows.  At 30 rows a crash takes
    about 0.5 ms and at 100 rows about 15 ms, against 0.09 ms and 1.1 ms
    for LAPACK ``dgetrf`` (dense Gaussian blocks of 8 * rows candidates,
    2-core x86-64 VM).  Of the studies only ``sparse_recovery`` crashes LPs
    that large: ten at 30 rows, about 7 ms of a 3 s run.
    """
    columns = problem.extended.T
    N, m = columns.shape
    vstate = np.full(N, FREE_ZERO, dtype=np.int8)
    vstate[np.flatnonzero(at_upper)] = AT_UPPER
    basis = np.arange(N - m, N)
    rows = list(range(m))  # the rows in elimination order: the k-th pick holds rows[k]
    picks = []  # the k-th pick: k, the position swapped with k, its nonzero multipliers
    for j in np.asarray(order, dtype=np.intp)[:CRASH_POOL * m].tolist():
        col = columns[j].tolist()
        floor = CRASH_PIVOT_SHARE * max(map(abs, col))
        for k, p, below in picks:  # the earlier picks' row swaps and eliminations
            top = col[p]
            col[p] = col[k]
            col[k] = top
            if top:
                for i, multiplier in below:
                    col[i] -= multiplier * top
        k = len(picks)
        size = list(map(abs, col[k:]))
        largest = max(size)
        if not largest >= floor > 0:
            continue  # dependent on the earlier picks
        p = k + size.index(largest)  # the first on ties
        pivot = col[p]
        col[p] = col[k]
        rows[k], rows[p] = rows[p], rows[k]
        scale = 1.0 / pivot
        picks.append((k, p, [(i, col[i] * scale) for i in range(k + 1, m) if col[i]]))
        basis[rows[k]] = j
        if k + 1 == m:
            break
    vstate[basis] = BASIC
    return basis, vstate


TIE_TOL = 1e-12       # steps this close count as tied in the ratio test
_NOT_TIED = np.iinfo(np.intp).max  # above every basic index


def leaving_row(t, step, delta, basis, bland):
    """Leaving row of a primal ratio test.

    ``t`` holds each row's blocking step, ``step`` the step taken (the
    smallest one, clamped at zero), ``delta`` each basic variable's rate
    of change and ``basis`` its index.  Rows within TIE_TOL of ``step``
    tie.  The largest |delta| wins, within 1e-15 and not under Bland's
    rule (``bland``); then the lowest basic index.
    """
    tied = t <= step + TIE_TOL
    if not bland:
        size = np.where(tied, np.abs(delta), 0.0)
        tied &= size >= size.max() - 1e-15
    return int(np.where(tied, basis, _NOT_TIED).argmin())


class _Simplex:
    def __init__(self, problem: LpProblem, dual_tol: float = DUAL_TOL):
        problem.validate()
        self.dual_tol = dual_tol
        m = problem.num_rows
        n = problem.num_vars
        self.m, self.n = m, n
        self.N = n + m
        self.A = problem.extended  # read-only [A | I]
        self.b = problem.rhs
        self.objective = problem.objective
        self.c = np.concatenate((problem.objective, np.zeros(m)))
        # the problem's bounds and column kinds (read-only views), read by
        # every start, flip and ratio test
        self.lo, self.hi, self.kind = problem.column_classes()
        self.span = self.hi - self.lo  # infinite unless both ends are finite
        self.iterations = 0
        self.bound_flips = 0
        self.pivots_since_refactor = 0
        self.bland = False
        self.stall = 0
        self._steps = np.empty(m)  # ratio-test buffer, one step per row
        self._d = self._y = None  # phase-2 reduced costs and row duals, once priced

    # -- basis management ---------------------------------------------------

    def warm_start(self, basis, vstate) -> bool:
        """Install the start (basis, vstate); False, keeping nothing, when it is unusable.

        A nonbasic state that does not fit its column's finite ends (fixed
        binaries, changed bounds) falls back to the column's default state.
        ``LpSolution``'s docstring lists the unusable pairs.  The basis's
        range and repeats are checked in Python scalars, which at a few rows
        cost less than numpy calls; a condition estimate (the product of the
        largest row sums of |B| and |B^-1|) above 1e12 or NaN refuses it.
        """
        basis = np.asarray(basis, dtype=np.intp)
        vstate = np.asarray(vstate)
        if basis.shape != (self.m,) or vstate.shape != (self.N,) or vstate.dtype.kind not in "iu":
            return False
        picks = basis.tolist()
        if len(set(picks)) != self.m or (picks and not 0 <= min(picks) <= max(picks) < self.N):
            return False
        index = np.multiply(vstate, 5, dtype=np.intp, casting="unsafe") + self.kind
        states = _WARM_STATE.take(index, mode="clip")
        states[basis] = BASIC
        if states.max() > FREE_ZERO:
            return False
        matrix = self.A[:, basis]
        try:
            binv = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return False
        # a numerically singular basis can invert without an error, into noise
        if not np.abs(matrix).sum(1).max() * np.abs(binv).sum(1).max() <= 1e12:
            return False
        sign = _WARM_SIGN.take(index, mode="clip")
        sign[basis] = 0.0
        self.basis, self.vstate, self.binv, self.price_sign = basis.copy(), states, binv, sign
        self._sync_states()
        return True

    def _sync_states(self):
        """Derive x and then the basics from (basis, vstate), its pricing signs and binv."""
        vs = self.vstate
        self.x = np.where(vs == AT_LOWER, self.lo, self.hi)  # basics follow below
        self.free_nonbasic = int(np.count_nonzero(vs == FREE_ZERO))
        if self.free_nonbasic:
            self.x[vs == FREE_ZERO] = 0.0
        self._d = None
        self._recompute_basics()

    def _recompute_basics(self):
        x = self.x
        x[self.basis] = 0.0
        x[self.basis] = self.binv @ (self.b - self.A @ x)

    def _refactor(self):
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError(f"singular basis {sorted(self.basis.tolist())}") from exc
        self._d = None
        self._recompute_basics()
        self.pivots_since_refactor = 0

    def _flip(self, flips) -> np.ndarray:
        """Move the nonbasic boxed columns ``flips`` to their other bound; returns which rose."""
        rising = self.vstate[flips] == AT_LOWER
        self.x[flips] = np.where(rising, self.hi[flips], self.lo[flips])
        self.vstate[flips] = np.where(rising, AT_UPPER, AT_LOWER)
        self.price_sign[flips] = -self.price_sign[flips]
        return rising

    # -- pivoting -----------------------------------------------------------

    def _price(self, costs):
        """Row duals y and reduced costs of ``costs`` under the current basis."""
        y = costs[self.basis] @ self.binv
        return y, costs - y @ self.A

    def _reduced_costs(self) -> np.ndarray:
        """Phase-2 reduced costs, priced once per basis: flips keep them, pivots drop them.

        The row duals of that pricing are kept beside them, as ``_y``.
        """
        if self._d is None:
            self._y, self._d = self._price(self.c)
        return self._d

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
            j = int((score > self.dual_tol).argmax())
        else:
            j = int(score.argmax())
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
        flip_t = float(self.span[j])
        floor, ceil = self.lo[self.basis], self.hi[self.basis]
        if phase1_viol is not None:
            # A violated row blocks only while moving back to the bound it
            # violates: below its lower bound it acts as (-inf, lo], above
            # its upper bound as [hi, inf).
            below, above = phase1_viol < 0, phase1_viol > 0
            floor, ceil = (np.where(below, -np.inf, np.where(above, ceil, floor)),
                           np.where(below, floor, np.where(above, np.inf, ceil)))
        rising = delta > 0
        t = self._steps
        t.fill(np.inf)
        np.divide(np.where(rising, ceil, floor) - self.x[self.basis], delta, out=t,
                  where=np.abs(delta) > PIVOT_TOL)
        r = int(t.argmin())
        if t[r] < -FEAS_TOL:
            t[t < -FEAS_TOL] = 0.0
            r = int(t.argmin())
        t_min = float(t[r])
        if not t_min < flip_t - TIE_TOL:
            return flip_t, -1, AT_UPPER if sigma == 1 else AT_LOWER, w, delta
        best_t = max(t_min, 0.0)
        if np.count_nonzero(t <= best_t + TIE_TOL) == 1:  # leaving_row: r, at ~10x the cost
            leave_row = r
        else:
            leave_row = leaving_row(t, best_t, delta, self.basis, self.bland)
        if phase1_viol is not None and phase1_viol[leave_row]:
            leave_state = AT_LOWER if phase1_viol[leave_row] < 0 else AT_UPPER
        else:
            leave_state = AT_UPPER if rising[leave_row] else AT_LOWER
        return best_t, leave_row, leave_state, w, delta

    def _apply_step(self, j, sigma, t, leave_row, leave_state, w, delta) -> bool:
        """Move along the step; returns True when it refactorized the basis."""
        x, state = self.x, self.vstate[j]
        x[self.basis] += t * delta
        if leave_row < 0:
            x[j] = self.hi[j] if sigma == 1 else self.lo[j]
            self.vstate[j] = flip = AT_UPPER if sigma == 1 else AT_LOWER
            self.price_sign[j] = _PRICE_SIGN[flip]
            self.bound_flips += 1
            return False
        out = self.basis[leave_row]
        x[out] = self.lo[out] if leave_state == AT_LOWER else self.hi[out]
        self.vstate[out] = leave_state
        self.price_sign[out] = 0.0 if self.kind[out] == FIXED else _PRICE_SIGN[leave_state]
        self.basis[leave_row] = j
        self._d = None
        x[j] += sigma * t
        self.vstate[j] = BASIC
        self.price_sign[j] = 0.0
        if state == FREE_ZERO:
            self.free_nonbasic -= 1
        piv = w[leave_row]
        if abs(piv) < 1e-12:
            raise SingularBasisError(f"vanishing pivot on row {leave_row}")
        row = self.binv[leave_row] / piv
        self.binv -= w[:, None] * row
        self.binv[leave_row] = row
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self._refactor()
            return True
        return False

    # -- phases -------------------------------------------------------------

    def _excess(self) -> np.ndarray:
        """Each basic variable's distance outside its bounds (negative inside)."""
        xb = self.x[self.basis]
        return np.maximum(self.lo[self.basis] - xb, xb - self.hi[self.basis])

    def dual_phase(self, max_iterations) -> str:
        """Bound-flipping dual simplex from a dual-feasible start.

        Returns "feasible" at once, with nothing changed, when the
        installed start is primal feasible already, and "skipped" when it
        is not and some nonbasic variable is neither boxed nor dual
        feasible.  Otherwise each boxed nonbasic first snaps to the bound
        its reduced-cost sign prefers, which makes the basis dual
        feasible.  Returns "feasible" once no basic variable violates its
        bounds, "iteration_limit", or "stalled" after restoring the start
        (and ``bound_flips``; its iterations stay counted) when a violated
        row has no eligible column, the pivot vanishes or leaves a singular
        basis, or the watchdog sees too many steps that leave the duals in
        place.
        """
        excess = self._excess()
        if float(excess[excess > FEAS_TOL].sum()) <= FEAS_TOL * max(1.0, self.m):
            return "feasible"
        start = (self.basis.copy(), self.vstate.copy(), self.price_sign.copy(), self.binv.copy(),
                 self.pivots_since_refactor, self.bound_flips)
        if not self._snap_to_dual_feasible():
            return "skipped"
        watchdog = max(200, 4 * self.m)
        stuck = 0
        while True:
            excess = self._excess()
            r = int(excess.argmax())
            if not excess[r] > FEAS_TOL:
                return "feasible"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            try:
                t = self._dual_step(r, float(excess[r]))
            except SingularBasisError:  # a refactorization after the pivot
                t = None
            if t is None or stuck > watchdog:
                (self.basis, self.vstate, self.price_sign, self.binv,
                 self.pivots_since_refactor, self.bound_flips) = start
                self._sync_states()
                return "stalled"
            stuck = stuck + 1 if t <= TIE_TOL else 0
            self.iterations += 1

    def _snap_to_dual_feasible(self) -> bool:
        """Move each boxed nonbasic to the bound its reduced cost prefers.

        Returns False, changing nothing, unless every nonbasic that is not
        boxed (one-sided or free) has a reduced cost that prefers where it
        sits.  Only the snapped columns are rewritten; the basics are then
        recomputed, and the first dual step reuses this pricing.
        """
        d = self._reduced_costs()
        snap = (d * self.price_sign > self.dual_tol).nonzero()[0]
        if not (self.kind.take(snap) == BOXED).all():
            return False
        if self.free_nonbasic and (np.abs(d[self.vstate == FREE_ZERO]) > self.dual_tol).any():
            return False
        if snap.size:
            self._flip(snap)
            self._recompute_basics()
        return True

    def _dual_step(self, r, slope):
        """One long step with leaving row r; returns the dual step, None on a stall."""
        i = self.basis[r]
        below = bool(self.x[i] < self.lo[i])
        choice = self._dual_ratio_test(r, below, slope)
        if choice is None:
            return None
        j, flips, t = choice
        if flips.size:
            span = self.span[flips]
            rising = self._flip(flips)
            self.x[self.basis] -= self.binv @ (self.A[:, flips] @ np.where(rising, span, -span))
            self.bound_flips += flips.size
        w = self.binv @ self.A[:, j]
        if not abs(w[r]) > PIVOT_TOL:
            return None
        theta = (self.x[i] - (self.lo[i] if below else self.hi[i])) / w[r]
        sigma = 1 if theta >= 0 else -1
        self._apply_step(j, sigma, abs(theta), r, AT_LOWER if below else AT_UPPER,
                         w, -sigma * w)
        return t

    def _dual_ratio_test(self, r, below, slope):
        """Bound-flipping ratio test for leaving row r: (entering j, flips, t) or None.

        The basic variable of row r lies ``slope`` below its lower bound
        (``below``) or above its upper bound, and leaves at that bound.
        Moving the duals by t along row r's direction moves each eligible
        nonbasic reduced cost toward zero, which it reaches at the
        breakpoint |d_j| / |alpha_rj|.  Walking the breakpoints in (ratio,
        column) order, each crossed one flips its column to the other bound
        and lowers the slope by |alpha_rj| * (u_j - l_j); the walk stops at
        the first breakpoint that leaves the slope at most FEAS_TOL, as the
        stack's ``_ratio_walk`` does (a free or one-sided column, with an
        infinite range, always stops it).  Among the breakpoints within
        TIE_TOL of that one, the entering column has the largest
        |alpha_rj|, then the lowest index; the columns crossed before the
        stop, except the entering one, flip.  None means no eligible column
        or a slope that never turns: the dual is unbounded.
        """
        alpha = self.binv[r] @ self.A
        pull = alpha * self.price_sign
        eligible = (pull > PIVOT_TOL) if below else (pull < -PIVOT_TOL)
        if self.free_nonbasic:
            eligible |= (self.vstate == FREE_ZERO) & (np.abs(alpha) > PIVOT_TOL)
        cand = eligible.nonzero()[0]
        if cand.size == 0:
            return None
        size = np.abs(alpha.take(cand))
        del alpha, pull, eligible  # keeps the peak memory of a long row down
        ratio = np.abs(self._reduced_costs().take(cand)) / size
        # Sort only the smallest ratios, widening the window until it holds
        # the stop; ties at the window's edge all fall inside it.
        window = min(cand.size, DUAL_WINDOW)
        while True:
            if window < cand.size:
                edge = np.partition(ratio, window - 1)[window - 1]
                near = (ratio <= edge).nonzero()[0]
            else:
                edge, near = np.inf, np.arange(cand.size)
            walk = near[ratio[near].argsort(kind="stable")]  # (ratio, column) order
            # the slope falls by each crossed column's weight; the weights
            # are nonnegative, so their running sum is sorted
            fall = (size[walk] * self.span.take(cand[walk])).cumsum()
            stop = int(fall.searchsorted(slope - FEAS_TOL))
            if stop < walk.size:
                break
            if window == cand.size:
                return None
            window = min(cand.size, 4 * window)
        at = ratio[walk[stop]]
        # every ratio outside the window is at least ``edge``, so when the
        # edge is not tied with the stop neither is anything beyond it
        pool = near if edge - at > TIE_TOL else np.arange(cand.size)
        tied = pool[np.abs(ratio[pool] - at) <= TIE_TOL]
        enter = int(tied[size[tied].argmax()])
        crossed = walk[:stop]
        return int(cand[enter]), cand[crossed[crossed != enter]], float(ratio[enter])

    def phase1(self, max_iterations) -> str:
        watchdog = max(200, 4 * self.m)
        last_f = np.inf
        costs = np.zeros(self.N)
        while True:
            excess = self._excess()  # viol: -1 below the bounds, 1 above, else 0
            viol = np.where(excess > FEAS_TOL,
                            np.sign(self.x[self.basis] - self.lo[self.basis]), 0.0)
            f = float(excess[viol != 0.0].sum())
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
            d = self._price(costs)[1]
            costs[self.basis] = 0.0
            j, sigma = self._choose_entering(d)
            if j < 0:
                return "infeasible"
            t, leave_row, leave_state, w, delta = self._ratio_test(j, sigma, phase1_viol=viol)
            if not np.isfinite(t):
                raise LpError("phase-1 direction unbounded; numerical breakdown")
            self._apply_step(j, sigma, t, leave_row, leave_state, w, delta)
            self.iterations += 1

    def phase2(self, max_iterations, cutoff=None) -> str:
        """Primal simplex from a feasible basis; "cutoff" once the objective reaches ``cutoff``.

        The cutoff is tested before each iteration, the start included: a
        tracked objective at or below it is recomputed exactly, as
        ``solution`` would report it, and only that value stops the solve.
        """
        watchdog = max(200, 4 * self.m)
        self.stall = 0
        self.obj = last_obj = self._objective()
        while True:
            if cutoff is not None and self.obj <= cutoff and self._reported_objective() <= cutoff:
                return "cutoff"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            d = self._reduced_costs()
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

    def _objective(self) -> float:
        return float(self.c @ self.x)

    def _reported_objective(self) -> float:
        """The objective over the structural columns, the value ``solution`` reports."""
        return float(self.objective @ self.x[: self.n])

    def solution(self, status: str) -> LpSolution:
        resid = self.A @ self.x - self.b
        if status == "optimal" and np.abs(resid).max(initial=0.0) > ROW_TOL:
            self._refactor()
            resid = self.A @ self.x - self.b
            if np.abs(resid).max(initial=0.0) > ROW_TOL:
                raise SingularBasisError("row residuals exceed tolerance after refactorization")
        reduced = self._reduced_costs()[: self.n].copy()  # phase 2's last pricing, if current
        return LpSolution(
            status=status,
            x=self.x[: self.n].copy(),
            objective=self._reported_objective(),
            iterations=self.iterations,
            duals=self._y.copy(),
            reduced_costs=reduced,
            basis=self.basis.copy(),
            vstate=self.vstate.copy(),
        )


def solve_lp(problem: LpProblem, warm=None, max_iterations: int | None = None,
             dual_tol: float = DUAL_TOL, cutoff: float | None = None) -> LpSolution:
    """Solve an LP to optimality with deterministic pivoting.

    ``warm`` is an optional (basis, vstate) pair from a previous solution of
    a problem with the same rows (bounds and relations may differ: a
    nonbasic state that no longer fits its bounds snaps to a finite bound,
    or to free at zero).  Without a usable, well-conditioned warm basis the
    solve starts from ``crash_basis(problem, ())``: every slack basic, every
    other variable at its finite lower bound, else its finite upper bound,
    else free at zero.  ``LpSolution.warm_used`` reports which start ran;
    its docstring lists the pairs that are refused.
    Integrality flags are ignored here and must be absent.  ``dual_tol`` is
    the reduced-cost threshold: callers with many bounded columns tighten
    it, since the worst-case objective slack at optimality scales like
    (columns x ranges x dual_tol).

    ``cutoff`` stops the solve early: once a phase-2 iterate's objective,
    recomputed as ``LpSolution.objective`` reports it, is at or below the
    cutoff, the status is ``cutoff``.  Only phase 2 reads it.  Its iterates
    are primal feasible and the objective never rises along them, so the
    value reached is an upper bound on the optimum (the minimum) and, by
    weak duality, a lower bound on the dual maximum: a branch and bound
    whose node bound is that dual maximum may drop the node as soon as the
    value passes its prune threshold.  The dual phase and phase 1 move
    through infeasible points whose objective bounds nothing, so they never
    stop on it.  Without a cutoff, or with one below the optimum, the solve
    is the one it would have been.
    """
    if problem.is_binary.any():
        raise LpError("solve_lp does not accept integrality flags; use solve_mip")
    if problem.num_rows == 0:
        return _solve_unconstrained(problem)
    s = _Simplex(problem, dual_tol=dual_tol)
    if max_iterations is None:
        max_iterations = 50_000 + 100 * s.m
    started = warm is not None and s.warm_start(*warm)
    if not started:
        s.warm_start(*crash_basis(problem, ()))
    status = s.dual_phase(max_iterations)
    dual = s.iterations
    if status != "feasible":  # phase 1 would stop at its first check
        status = s.phase1(max_iterations)
    primal = s.iterations
    if status == "feasible":
        status = s.phase2(max_iterations, cutoff)
    if status == "infeasible":
        sol = LpSolution(status="infeasible", iterations=s.iterations,
                         message="phase 1 ended with positive infeasibility")
    elif status == "unbounded":
        sol = LpSolution(status="unbounded", iterations=s.iterations,
                         message="improving direction with no blocking bound")
    elif status == "cutoff":
        sol = LpSolution(status="cutoff", x=s.x[: s.n].copy(),
                         objective=s._reported_objective(), iterations=s.iterations,
                         message=f"objective reached the cutoff {cutoff!r}")
    else:
        sol = s.solution(status)
        if status == "iteration_limit":
            sol.message = f"stopped after {s.iterations} iterations"
    sol.warm_used = started
    sol.phase_iterations = (dual, primal - dual, s.iterations - primal)
    sol.bound_flips = s.bound_flips
    return sol


def _solve_unconstrained(problem: LpProblem) -> LpSolution:
    """Row-free LP: each variable sits at whichever bound its cost prefers.

    A zero-cost variable sits at its finite lower bound, else its finite
    upper bound, else zero; a preferred bound that is infinite is unbounded.
    """
    problem.validate()
    c, lo, hi = problem.objective, problem.lower, problem.upper
    rest = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    x = np.where(c > 0, lo, np.where(c < 0, hi, rest))
    if not np.all(np.isfinite(x)):
        return LpSolution(status="unbounded")
    return LpSolution(status="optimal", x=x, objective=float(c @ x),
                      duals=np.zeros(0), reduced_costs=c.copy())
