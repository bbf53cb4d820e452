"""Problem and solution containers for the LP/MIP layer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RELATIONS = ("<=", "=", ">=", "free")
OBJ_MATCH_TOL = 1e-8  # relative gap allowed by ``certify_objective``
_SCALAR_END = (type(None), int, float, np.number)  # ends ``set_bounds`` checks before writing

# A column's kind says which ends of its bound interval are finite, and
# whether they are equal: free, lower end only, upper end only, boxed (both
# ends, apart), fixed (both ends, equal).
FREE, LOWER, UPPER, BOXED, FIXED = range(5)


def _kinds(lo, hi):
    """Each column's kind from its bounds; an interval holding no real number never gets here."""
    return np.isfinite(lo) + 2 * np.isfinite(hi) + (lo == hi)


# Slack bounds and kind by relation, in the order of RELATIONS: "<="
# [0, inf), "=" 0, ">=" (-inf, 0], "free" unbounded.
_SLACK_LO = np.array([0.0, 0.0, -np.inf, -np.inf])
_SLACK_HI = np.array([np.inf, 0.0, 0.0, np.inf])
_SLACK_KIND = _kinds(_SLACK_LO, _SLACK_HI).astype(np.int8)


class LpError(RuntimeError):
    """Raised on malformed problems or solver breakdowns."""


class SingularBasisError(LpError):
    """The working basis lost invertibility beyond repair."""


class LpIndexError(LpError, IndexError):
    """An index names no variable or row of the problem; the message names it."""


def certify_objective(value: float, lp_value: float, what: str) -> None:
    """Raise unless a primal objective recomputed from the solution matches the LP value.

    A NaN on either side fails the test, so it raises too.
    """
    if not abs(value - lp_value) <= OBJ_MATCH_TOL * max(1.0, abs(lp_value)):
        raise LpError(f"{what} {value} disagrees with LP optimum {lp_value}")


def _relation_code(relation: str) -> int:
    """The index of ``relation`` in RELATIONS; ``LpError`` for any other value."""
    try:
        return RELATIONS.index(relation)
    except ValueError:
        raise LpError(f"unknown relation {relation!r}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LpProblem:
    """Linear program in minimize form with per-variable bounds.

    Constraints are held once, as the simplex reads them: the read-only
    dense float [A | I] ``extended`` (one slack column per row, no
    ``-0.0``), of which ``matrix`` is a view, a float ``rhs`` array and the
    ``relations`` tuple.  ``add_rows`` appends a dense block into a new
    [A | I] and is the one way rows come in; ``copy`` shares the rows.
    Variables default to free; ``set_bounds`` takes ``None`` for an
    infinite end.  Binary variables are continuous [0, 1] columns flagged
    for the MIP layer.  A bad variable or row index raises
    ``LpIndexError`` and changes nothing.

    The problem also keeps what the simplex reads of the bounds, over all
    n + m columns (slacks last): the slack-extended bounds and each
    column's kind (FREE, LOWER, UPPER, BOXED or FIXED: which ends are
    finite, and whether they are equal).  Each write refreshes only what
    it touches: ``set_bounds`` and ``mark_binary`` their variables,
    ``set_relation`` its rows' slacks and ``add_rows`` the new slacks;
    ``copy`` copies them.  So ``lower`` and ``upper`` are read-only views,
    written only through ``set_bounds`` or ``mark_binary``, each of which
    refuses an empty or NaN interval, and ``relations`` is a read-only
    tuple, written only through ``set_relation`` and ``add_rows``.

    A row's relation is ``<=``, ``=``, ``>=`` or ``free``.  A free row
    constrains nothing: its slack is unbounded and its dual is zero at an
    optimum (to the reduced-cost tolerance).  Switching rows between ``=``
    and ``free`` with ``set_relation`` drops constraints without rebuilding
    the problem, and an optimal basis of the constrained problem stays
    primal feasible for the relaxed one, so it warm-starts straight into
    phase 2.
    """

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise LpError("problem needs at least one variable")
        self.num_vars = num_vars
        self.objective = np.zeros(num_vars)
        self.is_binary = np.zeros(num_vars, dtype=bool)
        self.extended = _read_only(np.zeros((0, num_vars)))
        self._relations: tuple[str, ...] = ()
        self.rhs = np.zeros(0)
        self._keep(np.full(num_vars, -np.inf), np.full(num_vars, np.inf),
                   np.full(num_vars, FREE, dtype=np.int8))

    @property
    def num_rows(self) -> int:
        return self.extended.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Each variable's lower bound, a read-only view; write it with ``set_bounds``."""
        return self._classes[0][:self.num_vars]

    @property
    def upper(self) -> np.ndarray:
        """Each variable's upper bound, a read-only view; write it with ``set_bounds``."""
        return self._classes[1][:self.num_vars]

    @property
    def relations(self) -> tuple[str, ...]:
        """Each row's relation; write it with ``set_relation``."""
        return self._relations

    def column_classes(self):
        """(lo, hi, kind) over all n + m columns, slacks last: read-only views kept current."""
        return self._classes

    def _keep(self, lo, hi, kind) -> None:
        """Hold the slack-extended bounds and column kinds, one entry per column.

        Writes go to these arrays; readers get ``_classes``, read-only views
        of them made once here rather than on each read.
        """
        self._lo, self._hi, self._kind = lo, hi, kind
        self._classes = _read_only(lo.view()), _read_only(hi.view()), _read_only(kind.view())

    @property
    def matrix(self) -> np.ndarray:
        """The constraint coefficients A, a read-only view of ``extended``."""
        return self.extended[:, :self.num_vars]

    @property
    def row_index(self) -> list[np.ndarray]:
        """Each row's nonzero columns, ascending; read off ``matrix``."""
        return [np.flatnonzero(row) for row in self.matrix]

    @property
    def row_value(self) -> list[np.ndarray]:
        """Each row's nonzero entries, in ``row_index`` order; read off ``matrix``."""
        return [row[row != 0.0] for row in self.matrix]

    def set_objective(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.num_vars,):
            raise LpError("objective length mismatch")
        self.objective = c

    def set_bounds(self, j, lo, hi) -> None:
        """Bound variable ``j``: an int, a slice or an index array.

        The ends are scalars or arrays matching ``j``; ``None`` is infinite.
        A NaN end, or an interval holding no real number ([inf, inf] or
        [-inf, -inf]), is refused like an empty interval, and a refused call
        changes nothing.  The classes of ``j`` follow: scalar ends fill
        them, array ends reclassify the variables written.
        """
        n = self.num_vars
        if isinstance(lo, _SCALAR_END) and isinstance(hi, _SCALAR_END):
            lo = -np.inf if lo is None else float(lo)
            hi = np.inf if hi is None else float(hi)
            if lo <= hi and lo < np.inf and hi > -np.inf:  # else refused below
                try:
                    self._lo[:n][j] = lo
                except IndexError as exc:
                    raise LpIndexError(f"variable {exc}") from None
                self._hi[:n][j] = hi
                # _kinds(lo, hi) in Python floats: lo < inf and hi > -inf here
                self._kind[:n][j] = (lo > -np.inf) + 2 * (hi < np.inf) + (lo == hi)
                return
        try:
            saved = self.lower[j].copy(), self.upper[j].copy()
        except IndexError as exc:
            raise LpIndexError(f"variable {exc}") from None
        try:
            self._lo[:n][j] = -np.inf if lo is None else np.asarray(lo, dtype=float)
            self._hi[:n][j] = np.inf if hi is None else np.asarray(hi, dtype=float)
            self._refuse_empty(j, self._lo[:n][j], self._hi[:n][j])
        except (LpError, ValueError):
            self._lo[:n][j], self._hi[:n][j] = saved
            raise
        self._kind[:n][j] = _kinds(self._lo[:n][j], self._hi[:n][j])

    def _refuse_empty(self, j, lo, hi) -> None:
        """Raise ``LpError`` naming the first variable of ``j`` whose [lo, hi] is empty or NaN.

        [inf, inf] and [-inf, -inf] hold no real number, so they are empty too.
        """
        if (lo <= hi).all() and lo.max() < np.inf and hi.min() > -np.inf:
            return
        empty = np.flatnonzero(~(lo <= hi) | (lo == np.inf) | (hi == -np.inf))
        if empty.size:
            first = np.arange(self.num_vars)[j].reshape(-1)[empty[0]]
            raise LpError(f"empty or NaN bound interval for variable {first}")

    def mark_binary(self, j) -> None:
        """Flag variable ``j`` (an int, a slice or an index array) binary.

        Its bounds are clipped to [0, 1] through ``set_bounds``; a clip that
        leaves an empty interval is refused and changes nothing.
        """
        try:
            lo, hi = np.maximum(self.lower[j], 0.0), np.minimum(self.upper[j], 1.0)
        except IndexError as exc:
            raise LpIndexError(f"variable {exc}") from None
        self._refuse_empty(j, lo, hi)
        self.set_bounds(j, lo, hi)
        self.is_binary[j] = True

    def set_relation(self, rows, relation: str) -> None:
        """Give every row listed in ``rows`` the relation ``relation``; their slacks follow."""
        code = _relation_code(relation)
        try:
            rows = np.arange(self.num_rows)[rows].reshape(-1)
        except IndexError as exc:
            raise LpIndexError(f"row {exc}") from None
        relations = list(self._relations)
        for r in rows.tolist():
            relations[r] = relation
        self._relations = tuple(relations)
        slacks = self.num_vars + rows
        self._lo[slacks] = _SLACK_LO[code]
        self._hi[slacks] = _SLACK_HI[code]
        self._kind[slacks] = _SLACK_KIND[code]

    def add_row(self, coeffs, relation: str, rhs: float) -> None:
        """Append a constraint; ``coeffs`` is a dict {index: value} or a dense vector."""
        if isinstance(coeffs, dict):
            idx = np.fromiter(coeffs.keys(), dtype=np.intp, count=len(coeffs))
            if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
                raise LpError("row references unknown variable")
            row = np.zeros(self.num_vars)
            row[idx] = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
            coeffs = row
        self.add_rows(np.asarray(coeffs, dtype=float)[None], relation, rhs)

    def add_rows(self, block, relation, rhs) -> None:
        """Append the rows of the dense (rows, num_vars) array ``block``.

        ``relation`` and ``rhs`` are each a scalar or one value per row.  A
        refused block appends nothing.  Each new row's slack column gets its
        relation's bounds and kind.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.num_vars:
            raise LpError("row length mismatch")
        rows = block.shape[0]
        relations = (relation,) * rows if isinstance(relation, str) else tuple(relation)
        if len(relations) != rows:
            raise LpError("need one relation per row")
        codes = np.array([_relation_code(rel) for rel in relations], dtype=np.intp)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape not in ((), (rows,)):
            raise LpError("need one rhs per row")
        if not np.isfinite(block).all():
            raise LpError("row coefficients must be finite")
        if not np.isfinite(rhs).all():
            raise LpError("rhs must be finite")
        m, n = self.num_rows, self.num_vars
        extended = np.zeros((m + rows, n + m + rows))
        extended[:m, :n] = self.matrix
        np.add(block, 0.0, out=extended[m:, :n])  # + 0.0 turns -0.0 into 0.0
        extended.ravel()[n::n + m + rows + 1] = 1.0  # the slack columns' identity
        self.extended = _read_only(extended)
        self.rhs = np.concatenate((self.rhs, np.broadcast_to(rhs, (rows,))))
        self._relations += relations
        self._keep(np.concatenate((self._lo, _SLACK_LO[codes])),
                   np.concatenate((self._hi, _SLACK_HI[codes])),
                   np.concatenate((self._kind, _SLACK_KIND[codes])))

    def validate(self) -> None:
        """Refuse a non-finite objective, or a binary variable bounded outside [0, 1].

        The bounds need no check here: every write to them refuses an empty
        or NaN interval.
        """
        if not np.isfinite(self.objective).all():
            raise LpError("objective has non-finite entries")
        if self.is_binary.any() and np.any(
                self.is_binary & ((self.lower < -1e-12) | (self.upper > 1.0 + 1e-12))):
            raise LpError("binary variables must have bounds within [0, 1]")

    def copy(self) -> "LpProblem":
        out = LpProblem(self.num_vars)
        out.objective = self.objective.copy()
        out.is_binary = self.is_binary.copy()
        out.extended = self.extended  # read-only; add_rows replaces it
        out._relations = self._relations
        out.rhs = self.rhs.copy()
        out._keep(self._lo.copy(), self._hi.copy(), self._kind.copy())
        return out


@dataclass
class LpSolution:
    """Simplex output; ``duals`` holds one multiplier per input row.

    ``basis``/``vstate`` describe the final basis over the slack-extended
    variable vector and can be fed back in as a warm start.  ``warm_used``
    is True when the solve started from the offered warm basis, and False
    when none was offered or it was rejected in favour of the all-slack
    crash start.  A pair is rejected when the basis has the wrong length,
    an index outside [0, n + m) or a repeated one, or is singular or
    numerically singular, or when ``vstate`` has the wrong length, is not
    an integer array, holds a code outside BASIC, AT_LOWER, AT_UPPER and
    FREE_ZERO, or flags BASIC a column outside the basis.  A nonbasic state
    that does not fit its column's bounds is not a rejection: it snaps to
    the finite lower bound, else the finite upper one, else free at zero.
    ``phase_iterations`` splits ``iterations`` into (dual phase, phase 1,
    phase 2); ``bound_flips`` counts nonbasic variables moved from one
    bound to the other, whether by a long dual step or a primal flip; the
    flips of a dual phase that stalls, and so is undone, do not count.

    ``status`` is ``optimal``, ``infeasible``, ``unbounded``,
    ``iteration_limit``, or ``cutoff`` when a ``cutoff`` given to
    ``solve_lp`` stopped phase 2.  A cut solve reports the primal feasible
    ``x`` it stopped at, its ``objective`` (at or below the cutoff and at
    or above the optimum, an upper bound on the minimum because only phase
    2, whose iterates are feasible, reads the cutoff), ``iterations``,
    ``phase_iterations``, ``bound_flips`` and ``warm_used``; no duals,
    reduced costs or basis.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    basis: np.ndarray | None = None
    vstate: np.ndarray | None = None
    message: str = ""
    warm_used: bool = False
    phase_iterations: tuple[int, int, int] = (0, 0, 0)
    bound_flips: int = 0


@dataclass
class MipSolution:
    """Branch-and-bound output for binary programs (minimization).

    ``gap`` is |incumbent - bound| / max(1, |incumbent|); ``bound`` is the
    best proven lower bound over the open search tree.  ``status`` is
    ``optimal``, ``feasible`` (node budget spent with an incumbent),
    ``node_limit`` (node budget spent without one), ``time_limit`` or
    ``infeasible``; ``x`` and ``objective`` are None without an incumbent.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float = -np.inf
    gap: float = np.inf
    nodes: int = 0
    iterations: int = 0
    bound_history: list = field(default_factory=list)
    message: str = ""
