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
  (ratio, column) order and stops where ``solve_lp``'s does, at the first
  one that leaves the slope at most FEAS_TOL; the entering column is the
  largest |alpha_rj| within TIE_TOL of the stop, then the lowest index,
  and the columns crossed before the stop flip.  Only the smallest
  breakpoints are sorted, in a window that grows 4x until it holds the
  stop;
* once an LP is primal feasible it is finished, and phase-2 pricing
  certifies it.  An LP whose reduced costs drifted past DUAL_TOL is handed
  to ``solve_lp`` after the batched refactor: its ``LpProblem`` is built
  then, warm-started from the LP's final basis, and that solve's
  objective and row duals replace the stack's.

u = 0 is feasible, so a dual step always finds a column unless the
arithmetic breaks down: no eligible column, a slope that never turns or a
vanishing pivot each raise ``StackStallError``, an LP that reaches
ITERATIONS_PER_VARIABLE * (n + k) steps raises ``StackLimitError``, and a
hand-off that ``solve_lp`` does not solve to optimality raises
``StackError``; each names the LP's stack position.  Identical stacks
replay identical steps.  The returned objectives and row duals come from a
fresh inverse of each final basis, so they carry no product-form drift;
inverses, sorts and row products are taken LP by LP, so each LP's values
do not depend on the stack it is in.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .problem import LpError, LpProblem, SingularBasisError
from .simplex import (_PRICE_SIGN, AT_LOWER, AT_UPPER, BASIC, DUAL_TOL, FEAS_TOL,
                      PIVOT_TOL, REFACTOR_EVERY, TIE_TOL, solve_lp)

ITERATIONS_PER_VARIABLE = 100   # iteration cap of one LP, per variable (columns plus slacks)
CRASH_MAX_CONDITION = 1e12      # crash bases estimated worse than this keep the slack basis
WINDOW = 8                      # breakpoints sorted first in a dual ratio test; grows 4x

# Per-LP arrays of the working set, compacted together as LPs finish.
_WORKING = ("pos", "a", "state", "basis", "binv", "xb")


class StackSolution(NamedTuple):
    """Per-LP optimal objectives (L,), row duals (L, k), iterations (L,) and crash use (L,).

    ``iterations`` counts an LP's stack steps, plus the ``solve_lp``
    iterations of an LP handed on because it failed phase-2 pricing.
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
    c, lo, hi = (np.asarray(v, dtype=float) for v in (c, lo, hi))
    for name, v in (("costs", c), ("lower bounds", lo), ("upper bounds", hi)):
        if v.shape not in ((), (n,)):
            raise LpError(f"{name} must be a scalar or of length {n}, one per column")
    c, lo, hi = (np.broadcast_to(v, (n,)) for v in (c, lo, hi))
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
        # each finished LP's basis, states, steps and hand-off, at its stack position
        self.final_basis = np.empty((size, k), dtype=np.intp)
        self.final_state = np.empty((size, n), dtype=np.int8)
        self.iterations = np.zeros(size, dtype=np.int64)
        self.handed_off = np.zeros(size, dtype=bool)

        self.pos = np.arange(size)
        self.stack = self.a = a
        self.crashed = self._crash()
        # the snap: every nonbasic column at the bound its reduced cost prefers
        self.state = np.where(self._reduced_costs() < 0, AT_UPPER, AT_LOWER).astype(np.int8)
        lp, row = np.nonzero(self.basis < n)
        self.state[lp, self.basis[lp, row]] = BASIC
        self.xb = self._basics()

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

    def _objective(self):
        """c . u of the working set, as row products (the same bits at any stack size)."""
        u = self._nonbasic_values(self.state)
        lp, row = np.nonzero(self.basis < self.n)
        u[lp, self.basis[lp, row]] = self.xb[lp, row]
        return (u[:, None, :] @ self.c[:, None])[:, 0, 0]

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
        """Objectives and row duals of every final basis, from one batched refactor.

        The LPs that failed phase-2 pricing then go to ``solve_lp``.
        """
        self.a, self.basis, self.state = self.stack, self.final_basis, self.final_state
        self._refactor()
        objective = self._objective()
        duals = (self.c_ext[self.basis][:, None, :] @ self.binv)[:, 0, :]
        for l in np.flatnonzero(self.handed_off).tolist():
            objective[l], duals[l] = self._hand_off(l)
        return StackSolution(objective, duals, self.iterations, self.crashed)

    def _hand_off(self, l):
        """Solve LP ``l`` with ``solve_lp`` from its final basis; returns (objective, duals)."""
        problem = LpProblem(self.n)
        problem.set_objective(self.c)
        problem.set_bounds(slice(None), self.lo, self.hi)
        problem.add_rows(self.stack[l], "=", 0.0)
        vstate = np.concatenate((self.final_state[l], np.full(self.k, AT_LOWER, dtype=np.int8)))
        vstate[self.final_basis[l]] = BASIC
        sol = solve_lp(problem, warm=(self.final_basis[l], vstate))
        if sol.status != "optimal":
            raise StackError(l, f"failed phase-2 pricing, and solve_lp then ended {sol.status}")
        self.iterations[l] += sol.iterations
        return sol.objective, sol.duals

    # -- the stacked iteration ------------------------------------------------

    def solve(self) -> StackSolution:
        step = 0
        while self.pos.size:
            if step and step % REFACTOR_EVERY == 0:
                self._refactor()
            if step >= self.cap:
                raise StackLimitError(int(self.pos[0]), self.cap)
            # the leaving row: the largest violation, lowest row on ties
            excess = np.maximum(self.lo_ext[self.basis] - self.xb,
                                self.xb - self.hi_ext[self.basis])
            slope = excess.max(axis=1, initial=0.0)
            d = self._reduced_costs()
            done = ~(slope > FEAS_TOL)
            if done.any():  # primal feasible: phase-2 pricing certifies it or hands it on
                score = d[done] * _PRICE_SIGN[self.state[done]]
                self.handed_off[self.pos[done]] = ~(score.max(axis=1) <= DUAL_TOL)
                self._finish(done, step)
                keep = ~done
                excess, slope, d = excess[keep], slope[keep], d[keep]
            if self.pos.size:
                self._dual_step(excess.argmax(axis=1), slope, d)
            step += 1
        return self._report()

    def _dual_step(self, r, slope, d):
        """One bound-flipping dual step of every working LP, each leaving on its row ``r``."""
        a, binv, basis, state, xb = self.a, self.binv, self.basis, self.state, self.xb
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
        enter = self._ratio_walk(ratio, pull, slope)
        w = (binv @ a[lps, :, enter][..., None])[..., 0]
        pivot = w[lps, r]
        vanishing = ~(np.abs(pivot) > PIVOT_TOL)
        if vanishing.any():
            raise StackStallError(int(self.pos[vanishing.argmax()]), "stalled on a vanishing pivot")
        theta = (xb[lps, r] - np.where(below, self.lo_ext[out], self.hi_ext[out])) / pivot
        entered = np.where(state[lps, enter] == AT_LOWER, self.lo[enter], self.hi[enter]) + theta
        xb -= theta[:, None] * w
        # the pivot: ``enter`` replaces row r's basic variable, which leaves at its bound
        xb[lps, r] = entered
        structural = out < self.n
        state[lps[structural], out[structural]] = np.where(below, AT_LOWER, AT_UPPER)[structural]
        state[lps, enter] = BASIC
        basis[lps, r] = enter
        pivot_row = binv[lps, r] / pivot[:, None]
        binv -= w[:, :, None] * pivot_row[:, None, :]
        binv[lps, r] = pivot_row

    def _ratio_walk(self, ratio, pull, slope):
        """Entering columns of the dual ratio tests; flips the crossed columns in place.

        ``ratio`` holds each column's breakpoint (inf where ineligible) and
        ``pull`` its |alpha_rj| where eligible; crossing a breakpoint lowers
        the slope by |alpha_rj| * (hi_j - lo_j), and the walk stops at the
        first breakpoint that leaves the slope at most FEAS_TOL, as
        ``solve_lp``'s ``_dual_ratio_test`` does.  A window of the smallest
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
                raise StackStallError(int(self.pos[todo[first]]), what)
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
                    self._flip(lp[f], walk[f], crossed[f])
            todo = todo[~done]
            width = min(n, 4 * width)
        return enter

    def _flip(self, lp, walk, crossed):
        """Move the columns ``walk`` flagged ``crossed`` of the LPs ``lp`` to their other bound."""
        now = self.state[lp[:, None], walk]
        span = np.where(crossed, self.span[walk], 0.0)
        shift = np.where(now == AT_LOWER, span, -span)
        moved = (shift[:, None, :] @ self.a[lp[:, None], :, walk])[:, 0, :]  # A_l times the shift
        self.xb[lp] -= (self.binv[lp] @ moved[..., None])[..., 0]
        i, at = np.nonzero(crossed)
        self.state[lp[i], walk[i, at]] = np.where(now[i, at] == AT_LOWER, AT_UPPER, AT_LOWER)
