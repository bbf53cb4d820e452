"""Bounded simplex over a stack of same-shape box LPs, one numpy step per pivot.

Every LP l of the stack is

    minimize c . u   subject to   A_l u = 0,   lo <= u <= hi,

where c, lo and hi (length n) are shared and each A_l has k rows.  That is
the dual of an intercept-free L1 fit on k columns (Barrodale & Roberts,
SIAM J. Numer. Anal. 10, 1973), which the exhaustive best-subset oracle
solves for every support at once.  Each step advances every unfinished LP
by one pivot or bound flip, so Python overhead is paid per step, not per
LP; finished LPs leave the working set, and their final bases wait for one
batched refactor after the loop.  The phase-1 violation sums and watchdog
run only while some LP of the working set is still in phase 1.

The method is ``solve_lp``'s, written over the stack:

* one slack per row, fixed at zero, keeps every basis invertible even when
  rows are dependent (duplicated rows, or the all-zero row of a centred
  constant column); such a slack just stays basic at zero;
* the crash puts each column at the bound that the sign of its
  least-squares reduced cost prefers (the least-squares multipliers come
  from a pseudo-inverse, so dependent rows do not break it), and phase 1
  minimizes the basic variables' total bound violation from there;
* Dantzig pricing takes the lowest index among tied columns, and each LP
  has its own degeneracy watchdog that switches it to Bland's rule;
* the ratio test takes the smallest step, and ``leaving_row``, the same
  function ``solve_lp`` calls, picks the leaving row among the rows tied
  with it; a row tying the bound flip never blocks it.

u = 0 is feasible and every column is boxed, so each LP ends optimal
unless it reaches ITERATIONS_PER_VARIABLE * (n + k) steps, which raises
``StackLimitError``.  Identical stacks replay identical steps.  The
returned objectives and row duals come from a fresh inverse of each final
basis, so they carry no product-form drift; inverses and row products are
taken LP by LP, so each LP's values do not depend on the stack it is in.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .problem import LpError, SingularBasisError
from .simplex import (_PRICE_SIGN, AT_LOWER, AT_UPPER, BASIC, DUAL_TOL, FEAS_TOL, PIVOT_TOL,
                      REFACTOR_EVERY, TIE_TOL, leaving_row)

ITERATIONS_PER_VARIABLE = 100   # iteration cap of one LP, per variable (columns plus slacks)

# Per-LP arrays of the working set, compacted together as LPs finish.
_WORKING = ("pos", "a", "state", "basis", "binv", "xb", "feasible", "bland", "stall",
            "last", "obj")


class StackSolution(NamedTuple):
    """Per-LP optimal objectives (L,), row duals (L, k) and iterations (L,)."""

    objective: np.ndarray
    duals: np.ndarray
    iterations: np.ndarray


class StackLimitError(LpError):
    """An LP of the stack reached the iteration cap; ``index`` is its position."""

    def __init__(self, index: int, cap: int):
        super().__init__(f"LP {index} of the stack hit the iteration cap of {cap}")
        self.index = index


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


class _Stack:
    def __init__(self, a, c, lo, hi):
        size, k, n = a.shape
        self.k, self.n = k, n
        self.c, self.lo, self.hi = c, lo, hi
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
        y0 = np.linalg.pinv(a @ a.swapaxes(1, 2), hermitian=True) @ (a @ c[:, None])
        reduced = c - (y0.swapaxes(1, 2) @ a)[:, 0, :]
        self.state = np.where(reduced < 0, AT_UPPER, AT_LOWER).astype(np.int8)
        self.basis = np.tile(n + np.arange(k), (size, 1))
        self.binv = np.tile(np.eye(k), (size, 1, 1))
        self.xb = -(a @ self._nonbasic_values(self.state)[..., None])[..., 0]
        self.feasible = np.zeros(size, dtype=bool)
        self.bland = np.zeros(size, dtype=bool)
        self.stall = np.zeros(size, dtype=np.int64)
        self.last = np.full(size, np.inf)
        self.obj = np.zeros(size)

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

    def _refactor(self):
        """Fresh basis inverses and basic values of the working set."""
        basis = self.basis
        cols = np.take_along_axis(self.a, np.minimum(basis, self.n - 1)[:, None, :], axis=2)
        units = np.eye(self.k)[:, np.maximum(basis - self.n, 0)].transpose(1, 0, 2)
        try:
            self.binv = np.linalg.inv(np.where(basis[:, None, :] >= self.n, units, cols))
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError("singular basis in the LP stack") from exc
        rhs = self.a @ self._nonbasic_values(self.state)[..., None]
        self.xb = -(self.binv @ rhs)[..., 0]

    def _enter_phase2(self, sel):
        self.feasible[sel] = True
        self.stall[sel] = 0
        self.obj[sel] = self.last[sel] = self._objective(sel)

    def _phase1_step(self, lo_b, hi_b):
        """Phase-1 bookkeeping of one step; returns the basic variables' violations.

        LPs that reach feasibility enter phase 2, and the others update their
        watchdog.  A violation is -1 below the bound, +1 above it, else 0.
        """
        phase1 = ~self.feasible
        below = phase1[:, None] & (self.xb < lo_b - FEAS_TOL)
        above = phase1[:, None] & (self.xb > hi_b + FEAS_TOL)
        infeas = (np.where(below, lo_b - self.xb, 0.0)
                  + np.where(above, self.xb - hi_b, 0.0)).sum(axis=1)
        reached = phase1 & (infeas <= FEAS_TOL * max(1, self.k))
        if reached.any():
            self._enter_phase2(np.flatnonzero(reached))
            phase1 &= ~reached
        progress = infeas < self.last - 1e-13
        self.last = np.where(phase1 & progress, infeas, self.last)
        self.stall += phase1 & ~progress
        self.stall[phase1 & progress] = 0
        self.bland |= self.stall > self.watchdog
        return above.astype(float) - below

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
        return StackSolution(self._objective(slice(None)), duals, self.iterations)

    # -- the stacked iteration ------------------------------------------------

    def solve(self) -> StackSolution:
        step = 0
        while self.pos.size:
            if step and step % REFACTOR_EVERY == 0:
                self._refactor()
                self.obj = np.where(self.feasible, self._objective(slice(None)), self.obj)
            lo_b, hi_b = self.lo_ext[self.basis], self.hi_ext[self.basis]
            if self.feasible.all():  # no LP leaves phase 2, so nothing is violated
                viol = np.zeros(self.basis.shape)
            else:
                viol = self._phase1_step(lo_b, hi_b)
            phase1 = ~self.feasible
            if step >= self.cap:
                raise StackLimitError(int(self.pos[0]), self.cap)

            # Pricing: phase 1 prices the violations of the basic variables.
            cost_b = np.where(self.feasible[:, None], self.c_ext[self.basis], viol)
            y = cost_b[:, None, :] @ self.binv
            d = np.where(self.feasible[:, None], self.c, 0.0) - (y @ self.a)[:, 0, :]
            score = d * _PRICE_SIGN[self.state]
            j = score.argmax(axis=1)
            if self.bland.any():
                j = np.where(self.bland, (score > DUAL_TOL).argmax(axis=1), j)
            rows = np.arange(j.size)
            optimal = ~(score[rows, j] > DUAL_TOL)
            if np.any(optimal & phase1):
                first = int(self.pos[np.flatnonzero(optimal & phase1)[0]])
                raise LpError(f"LP {first} of the stack: phase 1 stalled; numerical breakdown")
            dj = d[rows, j]
            if optimal.any():
                self._finish(optimal, step)
                keep = ~optimal
                j, dj, viol, lo_b, hi_b = j[keep], dj[keep], viol[keep], lo_b[keep], hi_b[keep]
                rows = np.arange(j.size)
                if not j.size:
                    break
            sigma = np.where(self.state[rows, j] == AT_LOWER, 1.0, -1.0)

            # Ratio test; a violated row blocks only on its way back to the
            # bound it violates.
            w = (self.binv @ self.a[rows, :, j][..., None])[..., 0]
            delta = -sigma[:, None] * w
            rising = delta > 0
            floor = np.where(viol < 0, -np.inf, np.where(viol > 0, hi_b, lo_b))
            ceil = np.where(viol < 0, lo_b, np.where(viol > 0, np.inf, hi_b))
            t = np.full(delta.shape, np.inf)
            np.divide(np.where(rising, ceil, floor) - self.xb, delta, out=t,
                      where=np.abs(delta) > PIVOT_TOL)
            t[t < -FEAS_TOL] = 0.0
            t_min = t.min(axis=1)
            flip_t = self.hi[j] - self.lo[j]
            flip = ~(t_min < flip_t - TIE_TOL)
            step_t = np.where(flip, flip_t, np.maximum(t_min, 0.0))
            r = leaving_row(t, step_t, delta, self.basis, self.bland)
            v_r = viol[rows, r]
            leave_state = np.where(v_r < 0, AT_LOWER, np.where(
                v_r > 0, AT_UPPER, np.where(rising[rows, r], AT_UPPER, AT_LOWER)))

            # Move, then flip the bound or pivot.
            self.xb += step_t[:, None] * delta
            f = np.flatnonzero(flip)
            self.state[f, j[f]] = np.where(sigma[f] > 0, AT_UPPER, AT_LOWER)
            p = np.flatnonzero(~flip)
            if p.size:
                jp, rp, sp = j[p], r[p], sigma[p]
                out = self.basis[p, rp]
                structural = out < self.n
                self.state[p[structural], out[structural]] = leave_state[p][structural]
                self.state[p, jp] = BASIC
                self.basis[p, rp] = jp
                self.xb[p, rp] = np.where(sp > 0, self.lo[jp], self.hi[jp]) + sp * step_t[p]
                wp = w[p]
                pivot_row = self.binv[p, rp] / wp[np.arange(p.size), rp][:, None]
                self.binv[p] -= wp[:, :, None] * pivot_row[:, None, :]
                self.binv[p, rp] = pivot_row

            # Phase-2 objective, tracked as in ``solve_lp``, feeds the watchdog.
            feasible = self.feasible
            self.obj = np.where(feasible, self.obj + dj * sigma * step_t, self.obj)
            last = np.where(feasible, self.last, 0.0)  # phase 1 may still hold inf
            progress = self.obj < last - 1e-13 * np.maximum(1.0, np.abs(last))
            self.last = np.where(feasible & progress, self.obj, self.last)
            self.stall += feasible & ~progress
            self.stall[feasible & progress] = 0
            self.bland |= self.stall > self.watchdog
            step += 1
        return self._report()
