"""Bounded dual simplex over a stack of same-shape box LPs, one numpy step per pivot.

Every LP l of the stack is

    minimize c . u   subject to   A_l u = 0,   lo <= u <= hi,

where c, lo and hi (length n) are shared and each A_l has k rows.  That is
the dual of an intercept-free L1 fit on k columns (Barrodale & Roberts,
SIAM J. Numer. Anal. 10, 1973), which the exhaustive best-subset oracle
solves for every support at once.  Each step advances every unfinished LP
by one iteration, so Python overhead is paid per step, not per LP;
finished LPs leave the working set, and their final bases wait for one
batched refactor after the loop.

Every column is boxed, so a basis is dual feasible as soon as each
nonbasic column sits at the bound its reduced cost prefers, and the stack
runs the bound-flipping dual simplex of ``solve_lp``'s dual phase from
such a start (Koenker & d'Orey 1987; Maros 2003):

* the crash makes basic, in each LP, the k columns with the smallest
  least-squares reduced cost |c - y0 A_l|, lowest index on ties (y0 comes
  from a pseudo-inverse, so dependent rows do not break it).  An LP keeps
  the slack basis, where y = 0, when it has fewer than k columns or its
  crash basis is singular or has an estimated condition number above
  1e12; one slack per row, fixed at zero, keeps that basis invertible even
  when rows are dependent (duplicated rows, or the all-zero row of a
  centred constant column), and such a slack just stays basic at zero;
* the snap moves every nonbasic column to the bound its reduced cost
  prefers;
* a dual step leaves on the row of the largest bound violation, lowest
  row on ties.  Its ratio test walks the breakpoints |d_j| / |alpha_rj| in
  (ratio, column) order and stops at the first one that leaves the slope
  at most FEAS_TOL; the entering column is the largest |alpha_rj| within
  TIE_TOL of the stop, then the lowest index, and the columns crossed
  before the stop flip.  Only the smallest breakpoints are sorted, in a
  window that grows 4x until it holds the stop;
* once an LP is primal feasible, phase-2 pricing certifies it.  An LP
  whose reduced costs drifted past DUAL_TOL continues with primal steps:
  Dantzig pricing with the lowest index among tied columns, a per-LP
  degeneracy watchdog that switches to Bland's rule, and the leaving row
  picked by ``leaving_row``, the function ``solve_lp`` calls.

u = 0 is feasible, so a dual step always finds a column unless the
arithmetic breaks down: no eligible column, a slope that never turns or a
vanishing pivot each raise ``StackStallError``, and an LP that reaches
ITERATIONS_PER_VARIABLE * (n + k) steps raises ``StackLimitError``; both
name the LP's stack position.  Identical stacks replay identical steps.
The returned objectives and row duals come from a fresh inverse of each
final basis, so they carry no product-form drift; inverses, sorts and row
products are taken LP by LP, so each LP's values do not depend on the
stack it is in.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .problem import LpError, SingularBasisError
from .simplex import (_PRICE_SIGN, AT_LOWER, AT_UPPER, BASIC, DUAL_TOL, FEAS_TOL,
                      PIVOT_TOL, REFACTOR_EVERY, TIE_TOL, leaving_row)

ITERATIONS_PER_VARIABLE = 100   # iteration cap of one LP, per variable (columns plus slacks)
CRASH_MAX_CONDITION = 1e12      # crash bases estimated worse than this keep the slack basis
WINDOW = 8                      # breakpoints sorted first in a dual ratio test; grows 4x

# Per-LP arrays of the working set, compacted together as LPs finish.
_WORKING = ("pos", "a", "state", "basis", "binv", "xb", "dual")


class StackSolution(NamedTuple):
    """Per-LP optimal objectives (L,), row duals (L, k), iterations (L,) and crash use (L,).

    ``crashed`` is True where the LP started from its least-squares crash
    basis and False where it kept the slack basis.
    """

    objective: np.ndarray
    duals: np.ndarray
    iterations: np.ndarray
    crashed: np.ndarray


class StackError(LpError):
    """An LP of the stack failed; ``index`` is its position in the stack."""

    def __init__(self, index: int, what: str):
        super().__init__(f"LP {index} of the stack {what}")
        self.index = index


class StackLimitError(StackError):
    """An LP of the stack reached the iteration cap."""

    def __init__(self, index: int, cap: int):
        super().__init__(index, f"hit the iteration cap of {cap}")


class StackStallError(StackError):
    """A dual step of an LP broke down.

    Its leaving row had no eligible column, its slope never turned, or its
    pivot vanished; u = 0 is feasible, so each needs a numerical breakdown.
    """


def solve_box_stack(c, lo, hi, a) -> StackSolution:
    """Solve min c.u s.t. a[l] u = 0, lo <= u <= hi for every l of the stack.

    ``a`` is (L, k, n); ``c``, ``lo`` and ``hi`` are scalars or length-n
    arrays shared by the stack, with finite lo < hi and lo <= 0 <= hi, so
    u = 0 is feasible.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[2] < 1:
        raise LpError("constraint stack must be (LPs, rows, columns) with columns")
    n = a.shape[2]
    c, lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (c, lo, hi))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise LpError("every column needs a finite box lo < hi")
    if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):
        raise LpError("every column's box must hold 0")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a))):
        raise LpError("costs and constraint entries must be finite")
    return _Stack(a, c, lo, hi).solve()


def _subset(mask):
    """The LPs flagged in ``mask``: a full slice when all are, so that nothing is copied."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


class _Stack:
    def __init__(self, a, c, lo, hi):
        size, k, n = a.shape
        self.k, self.n = k, n
        self.c, self.lo, self.hi, self.span = c, lo, hi, hi - lo
        zeros = np.zeros(k)
        self.c_ext = np.concatenate((c, zeros))
        self.lo_ext = np.concatenate((lo, zeros))
        self.hi_ext = np.concatenate((hi, zeros))
        self.cap = ITERATIONS_PER_VARIABLE * (n + k)
        self.watchdog = max(200, 4 * k)
        # each finished LP's basis, states and steps, at its stack position
        self.final_basis = np.empty((size, k), dtype=np.intp)
        self.final_state = np.empty((size, n), dtype=np.int8)
        self.iterations = np.zeros(size, dtype=np.int64)

        self.pos = np.arange(size)
        self.stack = self.a = a
        self.crashed = self._crash()
        # the snap: every nonbasic column at the bound its reduced cost prefers
        self.state = np.where(self._reduced_costs() < 0, AT_UPPER, AT_LOWER).astype(np.int8)
        lp, row = np.nonzero(self.basis < n)
        self.state[lp, self.basis[lp, row]] = BASIC
        self.xb = self._basics()
        # in the dual phase until primal feasible; with no rows, feasible at once
        self.dual = np.full(size, k > 0)
        # the primal steps' degeneracy watchdog, at stack positions
        self.bland = np.zeros(size, dtype=bool)
        self.stall = np.zeros(size, dtype=np.int64)
        self.last = np.full(size, np.inf)

    def _crash(self):
        """Install each LP's start basis and its inverse; returns which LPs crashed.

        The crash basis holds the k columns of least |c - y0 A_l| (lowest
        index on ties), in column order; the other LPs keep the slack basis.
        """
        size, k, n = self.a.shape
        self.basis = np.tile(n + np.arange(k), (size, 1))
        self.binv = np.tile(np.eye(k), (size, 1, 1))
        crashed = np.zeros(size, dtype=bool)
        if not size or not 0 < k <= n:
            return crashed
        a = self.a
        y0 = np.linalg.pinv(a @ a.swapaxes(1, 2), hermitian=True) @ (a @ self.c[:, None])
        key = np.abs(self.c - (y0.swapaxes(1, 2) @ a)[:, 0, :])
        kth = np.partition(key, k - 1, axis=1)[:, k - 1:k]
        below, tied = key < kth, key == kth
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        cols = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= room)))[1].reshape(size, k)
        mats = np.take_along_axis(a, cols[:, None, :], axis=2)
        try:
            inv = np.linalg.inv(mats)
        except np.linalg.LinAlgError:  # exactly singular crash bases keep the slack basis
            usable = np.linalg.slogdet(mats)[0] != 0
            inv = np.linalg.inv(np.where(usable[:, None, None], mats, np.eye(k)))
        else:
            usable = np.ones(size, dtype=bool)
        condition = np.abs(mats).sum(axis=2).max(axis=1) * np.abs(inv).sum(axis=2).max(axis=1)
        crashed = usable & (condition <= CRASH_MAX_CONDITION)
        self.basis[crashed] = cols[crashed]
        self.binv[crashed] = inv[crashed]
        return crashed

    # -- values and bases ---------------------------------------------------

    def _nonbasic_values(self, state):
        """Column values with the basic columns at zero, (LPs, n)."""
        return np.where(state == AT_UPPER, self.hi, np.where(state == AT_LOWER, self.lo, 0.0))

    def _values(self, sel):
        """Full column values of the LPs ``sel`` (nonbasic at bounds, basic from xb)."""
        u = self._nonbasic_values(self.state[sel])
        basis = self.basis[sel]
        lp, row = np.nonzero(basis < self.n)
        u[lp, basis[lp, row]] = self.xb[sel][lp, row]
        return u

    def _objective(self, sel):
        """c . u for the LPs ``sel``, as row products (the same bits at any stack size)."""
        return (self._values(sel)[:, None, :] @ self.c[:, None])[:, 0, 0]

    def _basics(self):
        """Basic values of the working set, from its inverses and nonbasic values."""
        rhs = self.a @ self._nonbasic_values(self.state)[..., None]
        return -(self.binv @ rhs)[..., 0]

    def _reduced_costs(self):
        """c - y A_l of the working set's columns, y = c_B B^-1, (LPs, n)."""
        y = self.c_ext[self.basis][:, None, :] @ self.binv
        return self.c - (y @ self.a)[:, 0, :]

    def _refactor(self):
        """Fresh basis inverses and basic values of the working set."""
        basis = self.basis
        cols = np.take_along_axis(self.a, np.minimum(basis, self.n - 1)[:, None, :], axis=2)
        units = np.eye(self.k)[:, np.maximum(basis - self.n, 0)].transpose(1, 0, 2)
        try:
            self.binv = np.linalg.inv(np.where(basis[:, None, :] >= self.n, units, cols))
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError("singular basis in the LP stack") from exc
        self.xb = self._basics()

    def _finish(self, done, step):
        """Record the final bases of the LPs flagged ``done``; drop them from the working set."""
        at = self.pos[done]
        self.final_basis[at] = self.basis[done]
        self.final_state[at] = self.state[done]
        self.iterations[at] = step
        keep = ~done
        for name in _WORKING:
            setattr(self, name, getattr(self, name)[keep])

    def _report(self) -> StackSolution:
        """Objectives and row duals of every final basis, from one batched refactor."""
        self.a, self.basis, self.state = self.stack, self.final_basis, self.final_state
        self._refactor()
        duals = (self.c_ext[self.basis][:, None, :] @ self.binv)[:, 0, :]
        return StackSolution(self._objective(slice(None)), duals, self.iterations, self.crashed)

    def _position(self, sel, flagged):
        """Stack position of the first of the LPs ``sel`` that ``flagged`` marks."""
        return int(self.pos[sel][np.flatnonzero(flagged)[0]])

    def _gather(self, sel):
        """The working arrays of the LPs ``sel``: views for a full slice, else copies."""
        return self.a[sel], self.binv[sel], self.basis[sel], self.state[sel], self.xb[sel]

    def _scatter(self, sel, binv, basis, state, xb):
        """Write back what ``_gather`` copied; views were updated in place."""
        if not isinstance(sel, slice):
            self.binv[sel], self.basis[sel], self.state[sel], self.xb[sel] = binv, basis, state, xb

    # -- the stacked iteration ------------------------------------------------

    def solve(self) -> StackSolution:
        step = 0
        while self.pos.size:
            if step and step % REFACTOR_EVERY == 0:
                self._refactor()
            if step >= self.cap:
                raise StackLimitError(int(self.pos[0]), self.cap)
            row = slope = None
            if self.dual.any():  # the leaving row: the largest violation, lowest row on ties
                excess = np.maximum(self.lo_ext[self.basis] - self.xb,
                                    self.xb - self.hi_ext[self.basis])
                row = excess.argmax(axis=1)
                slope = excess[np.arange(row.size), row]
                self.dual &= slope > FEAS_TOL
            d = self._reduced_costs()
            j, optimal = self._price(d)
            if optimal.any():
                self._finish(optimal, step)
                keep = ~optimal
                d, j = d[keep], j[keep]
                if row is not None:
                    row, slope = row[keep], slope[keep]
            if self.dual.any():
                sel = _subset(self.dual)
                self._dual_step(sel, row[sel], slope[sel], d[sel])
            if not self.dual.all():
                sel = _subset(~self.dual)
                self._primal_step(sel, j[sel], d[sel])
            step += 1
        return self._report()

    def _price(self, d):
        """Phase-2 pricing, the certifying pass of every primal feasible LP.

        Returns each such LP's entering column (Dantzig, or Bland's rule once
        its watchdog tripped) and whether it is optimal.
        """
        j = np.zeros(d.shape[0], dtype=np.intp)
        optimal = np.zeros(d.shape[0], dtype=bool)
        if not self.dual.all():
            sel = _subset(~self.dual)
            score = d[sel] * _PRICE_SIGN[self.state[sel]]
            best = score.argmax(axis=1)
            bland = self.bland[self.pos[sel]]
            if bland.any():
                best = np.where(bland, (score > DUAL_TOL).argmax(axis=1), best)
            j[sel] = best
            optimal[sel] = ~(score[np.arange(best.size), best] > DUAL_TOL)
        return j, optimal

    def _dual_step(self, sel, r, slope, d):
        """One bound-flipping dual step of the LPs ``sel``, each leaving on its row ``r``."""
        a, binv, basis, state, xb = self._gather(sel)
        lps = np.arange(r.size)
        out = basis[lps, r]
        below = xb[lps, r] < self.lo_ext[out]
        # alpha_r, negated where the leaving variable lies above its bound, so
        # that the eligible columns are those that pull upward
        turned = np.where(below, 1.0, -1.0)[:, None] * binv[lps, r]
        pull = (turned[:, None, :] @ a)[:, 0, :]
        pull *= _PRICE_SIGN[state]
        eligible = pull > PIVOT_TOL
        ratio = np.full(pull.shape, np.inf)
        np.divide(np.abs(d), pull, out=ratio, where=eligible)
        enter = self._ratio_walk(sel, ratio, pull, slope, a, binv, state, xb)
        w = (binv @ a[lps, :, enter][..., None])[..., 0]
        pivot = w[lps, r]
        vanishing = ~(np.abs(pivot) > PIVOT_TOL)
        if vanishing.any():
            raise StackStallError(self._position(sel, vanishing), "stalled on a vanishing pivot")
        theta = (xb[lps, r] - np.where(below, self.lo_ext[out], self.hi_ext[out])) / pivot
        entered = np.where(state[lps, enter] == AT_LOWER, self.lo[enter], self.hi[enter]) + theta
        xb -= theta[:, None] * w
        self._pivot(lps, binv, basis, state, xb, r, enter, w,
                    np.where(below, AT_LOWER, AT_UPPER), entered)
        self._scatter(sel, binv, basis, state, xb)

    def _ratio_walk(self, sel, ratio, pull, slope, a, binv, state, xb):
        """Entering columns of the dual ratio tests; flips the crossed columns in place.

        ``ratio`` holds each column's breakpoint (inf where ineligible) and
        ``pull`` its |alpha_rj| where eligible; crossing a breakpoint lowers
        the slope by |alpha_rj| * (hi_j - lo_j).  A window of the smallest
        breakpoints is sorted, and an LP whose stop, or a breakpoint tied with
        it, might lie past the window's edge tries again with a window 4x
        wider, so the window an LP ends with depends on that LP alone.
        """
        m, n = ratio.shape
        enter = np.empty(m, dtype=np.intp)
        todo = np.arange(m)
        width = min(n, WINDOW)
        while todo.size:
            every = todo.size == m
            rat = ratio if every else ratio[todo]
            rows = np.arange(todo.size)[:, None]
            if width < n:
                part = np.argpartition(rat, width - 1, axis=1)[:, :width]
                part.sort(axis=1)
                at_part = rat[rows, part]
            else:
                part, at_part = np.broadcast_to(np.arange(n), rat.shape), rat
            order = at_part.argsort(axis=1, kind="stable")
            walk = part[rows, order]  # columns in (ratio, column) order
            at_walk = at_part[rows, order]
            size = np.where(at_walk < np.inf, pull[rows if every else todo[:, None], walk], 0.0)
            fall = np.cumsum(size * self.span[walk], axis=1)  # nondecreasing
            # a slope within FEAS_TOL of zero has turned: where u = 0 is the
            # only feasible point, the last breakpoint meets the slope exactly
            left = (slope if every else slope[todo]) - FEAS_TOL
            stop = np.count_nonzero(fall < left[:, None], axis=1)
            at = at_walk[rows[:, 0], np.minimum(stop, width - 1)]
            done = (stop < width) & (at < np.inf)
            # every breakpoint past the window is at least the window's last
            edge = at_walk[:, -1]
            if width < n:
                done &= edge - np.where(done, at, 0.0) > TIE_TOL
            stuck = ~done & ((width == n) | (edge == np.inf))
            if stuck.any():
                first = np.flatnonzero(stuck)[0]
                what = ("stalled: no column is eligible to enter" if at_walk[first, 0] == np.inf
                        else "stalled: its dual slope never turns")
                flagged = np.zeros(m, dtype=bool)
                flagged[todo[first]] = True
                raise StackStallError(self._position(sel, flagged), what)
            if done.any():
                g = _subset(done)
                walk, at_walk, size, stop, lp = walk[g], at_walk[g], size[g], stop[g], todo[g]
                tied = np.abs(at_walk - at[g, None]) <= TIE_TOL
                big = np.where(tied, size, -1.0)
                best = tied & (big == big.max(axis=1, keepdims=True))
                chosen = np.where(best, walk, n).min(axis=1)
                enter[lp] = chosen
                crossed = (np.arange(walk.shape[1]) < stop[:, None]) & (walk != chosen[:, None])
                flipping = crossed.any(axis=1)
                if flipping.any():
                    f = np.flatnonzero(flipping)
                    self._flip(a, binv, state, xb, lp[f], walk[f], crossed[f])
            todo = todo[~done]
            width = min(n, 4 * width)
        return enter

    def _flip(self, a, binv, state, xb, lp, walk, crossed):
        """Move the columns ``walk`` flagged ``crossed`` of the LPs ``lp`` to their other bound."""
        now = state[lp[:, None], walk]
        span = np.where(crossed, self.span[walk], 0.0)
        shift = np.where(now == AT_LOWER, span, -span)
        moved = (shift[:, None, :] @ a[lp[:, None], :, walk])[:, 0, :]  # A_l times the shift
        xb[lp] -= (binv[lp] @ moved[..., None])[..., 0]
        i, at = np.nonzero(crossed)
        state[lp[i], walk[i, at]] = np.where(now[i, at] == AT_LOWER, AT_UPPER, AT_LOWER)

    def _primal_step(self, sel, j, d):
        """One primal phase-2 step of the LPs ``sel`` on their entering columns ``j``."""
        at = self.pos[sel]
        fresh = np.isinf(self.last[at])  # a first primal step: the watchdog starts here
        if fresh.any():
            self.last[at[fresh]] = self._objective(sel)[fresh]
        a, binv, basis, state, xb = self._gather(sel)
        lps = np.arange(j.size)
        sigma = np.where(state[lps, j] == AT_LOWER, 1.0, -1.0)
        w = (binv @ a[lps, :, j][..., None])[..., 0]
        delta = -sigma[:, None] * w
        rising = delta > 0
        t = np.full(delta.shape, np.inf)
        np.divide(np.where(rising, self.hi_ext[basis], self.lo_ext[basis]) - xb, delta, out=t,
                  where=np.abs(delta) > PIVOT_TOL)
        t[t < -FEAS_TOL] = 0.0
        t_min = t.min(axis=1, initial=np.inf)
        flip_t = self.span[j]
        flip = ~(t_min < flip_t - TIE_TOL)
        step_t = np.where(flip, flip_t, np.maximum(t_min, 0.0))
        xb += step_t[:, None] * delta
        f = np.flatnonzero(flip)
        state[f, j[f]] = np.where(sigma[f] > 0, AT_UPPER, AT_LOWER)
        p = np.flatnonzero(~flip)
        if p.size:
            r = leaving_row(t[p], step_t[p], delta[p], basis[p], self.bland[self.pos[sel][p]])
            entered = np.where(sigma[p] > 0, self.lo[j[p]], self.hi[j[p]]) + sigma[p] * step_t[p]
            leave = np.where(rising[p, r], AT_UPPER, AT_LOWER)
            self._pivot(p, binv, basis, state, xb, r, j[p], w[p], leave, entered)
        self._scatter(sel, binv, basis, state, xb)
        # the watchdog reads the objective of each step's end
        obj, last = self._objective(sel), self.last[at]
        progress = obj < last - 1e-13 * np.maximum(1.0, np.abs(last))
        self.last[at] = np.where(progress, obj, last)
        self.stall[at] = stall = np.where(progress, 0, self.stall[at] + 1)
        self.bland[at] |= stall > self.watchdog

    def _pivot(self, lps, binv, basis, state, xb, r, enter, w, leave, entered):
        """In the LPs ``lps`` of the given arrays, ``enter`` replaces row ``r``'s basic variable.

        The leaving variable goes to the state ``leave`` and the entering one
        takes the value ``entered``; ``w`` is B^-1 times the entering column.
        """
        out = basis[lps, r]
        structural = out < self.n
        state[lps[structural], out[structural]] = leave[structural]
        state[lps, enter] = BASIC
        basis[lps, r] = enter
        xb[lps, r] = entered
        pivot_row = binv[lps, r] / w[np.arange(lps.size), r][:, None]
        binv[lps] -= w[:, :, None] * pivot_row[:, None, :]
        binv[lps, r] = pivot_row
