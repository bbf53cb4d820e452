"""Problem and solution containers for the LP/MIP layer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RELATIONS = ("<=", "=", ">=", "free")
OBJ_MATCH_TOL = 1e-8  # relative gap allowed by ``certify_objective``


class LpError(RuntimeError):
    """Raised on malformed problems or solver breakdowns."""


class SingularBasisError(LpError):
    """The working basis lost invertibility beyond repair."""


def certify_objective(value: float, lp_value: float, what: str) -> None:
    """Raise unless a primal objective recomputed from the solution matches the LP value."""
    if abs(value - lp_value) > OBJ_MATCH_TOL * max(1.0, abs(lp_value)):
        raise LpError(f"{what} {value} disagrees with LP optimum {lp_value}")


def _check_relation(relation: str) -> None:
    if relation not in RELATIONS:
        raise LpError(f"unknown relation {relation!r}")


class LpProblem:
    """Linear program in minimize form with per-variable bounds.

    Rows are stored sparsely as (indices, values, relation, rhs).  Variables
    default to free; ``set_bounds`` takes ``None`` for an infinite end.
    Binary variables are continuous [0, 1] columns flagged for the MIP layer.

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
        self.lower = np.full(num_vars, -np.inf)
        self.upper = np.full(num_vars, np.inf)
        self.is_binary = np.zeros(num_vars, dtype=bool)
        self.row_index: list[np.ndarray] = []
        self.row_value: list[np.ndarray] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    def set_objective(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.num_vars,):
            raise LpError("objective length mismatch")
        self.objective = c

    def set_bounds(self, j, lo, hi) -> None:
        """Bound variable ``j``: an int, a slice or an index array.

        The ends are scalars or arrays matching ``j``; ``None`` is infinite.
        """
        self.lower[j] = -np.inf if lo is None else np.asarray(lo, dtype=float)
        self.upper[j] = np.inf if hi is None else np.asarray(hi, dtype=float)
        empty = np.flatnonzero(self.lower[j] > self.upper[j])
        if empty.size:
            first = np.arange(self.num_vars)[j].reshape(-1)[empty[0]]
            raise LpError(f"empty bound interval for variable {first}")

    def mark_binary(self, j) -> None:
        """Flag variable ``j`` (an int, a slice or an index array) binary."""
        self.is_binary[j] = True
        self.lower[j] = np.maximum(self.lower[j], 0.0)
        self.upper[j] = np.minimum(self.upper[j], 1.0)

    def set_relation(self, rows, relation: str) -> None:
        """Give every row listed in ``rows`` the relation ``relation``."""
        _check_relation(relation)
        for r in np.arange(self.num_rows)[rows].reshape(-1).tolist():
            self.relations[r] = relation

    def add_row(self, coeffs, relation: str, rhs: float) -> None:
        """Append a constraint; ``coeffs`` is a dict {index: value} or a dense vector."""
        _check_relation(relation)
        if isinstance(coeffs, dict):
            idx = np.fromiter(coeffs.keys(), dtype=np.intp, count=len(coeffs))
            val = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
            order = np.argsort(idx)
            idx, val = idx[order], val[order]
        else:
            dense = np.asarray(coeffs, dtype=float)
            if dense.shape != (self.num_vars,):
                raise LpError("row length mismatch")
            idx = np.nonzero(dense)[0]
            val = dense[idx]
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise LpError("row references unknown variable")
        if not np.all(np.isfinite(val)):
            raise LpError("row coefficients must be finite")
        if not np.isfinite(rhs):
            raise LpError("rhs must be finite")
        self.row_index.append(idx)
        self.row_value.append(val)
        self.relations.append(relation)
        self.rhs.append(float(rhs))

    def add_rows(self, index, value, relation: str, rhs) -> None:
        """Append a block of rows given by their entries.

        ``index`` and ``value`` are (rows, width) arrays: row r holds
        ``value[r, i]`` on variable ``index[r, i]``, and no row may name a
        variable twice.  Zero entries are dropped and each row is stored with
        its indices ascending, exactly as ``add_row`` stores the same row
        given densely.  ``rhs`` is a scalar or one value per row.
        """
        _check_relation(relation)
        idx = np.asarray(index, dtype=np.intp)
        val = np.asarray(value, dtype=float)
        if idx.ndim != 2 or val.shape != idx.shape:
            raise LpError("row block index and value shapes differ")
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), idx.shape[:1])
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise LpError("row references unknown variable")
        if not np.all(np.isfinite(val)):
            raise LpError("row coefficients must be finite")
        if not np.all(np.isfinite(rhs)):
            raise LpError("rhs must be finite")
        order = np.argsort(idx, axis=1, kind="stable")
        idx = np.take_along_axis(idx, order, axis=1)
        val = np.take_along_axis(val, order, axis=1)
        if np.any(idx[:, 1:] == idx[:, :-1]):
            raise LpError("row names a variable twice")
        keep = val != 0.0
        for r in range(idx.shape[0]):
            self.row_index.append(idx[r, keep[r]])
            self.row_value.append(val[r, keep[r]])
        self.relations.extend([relation] * idx.shape[0])
        self.rhs.extend(rhs.tolist())

    def validate(self) -> None:
        if not np.all(np.isfinite(self.objective)):
            raise LpError("objective has non-finite entries")
        bad = self.is_binary & ((self.lower < -1e-12) | (self.upper > 1.0 + 1e-12))
        if np.any(bad):
            raise LpError("binary variables must have bounds within [0, 1]")

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_rows, self.num_vars))
        for r, (idx, val) in enumerate(zip(self.row_index, self.row_value)):
            a[r, idx] = val
        return a

    def copy(self) -> "LpProblem":
        out = LpProblem(self.num_vars)
        out.objective = self.objective.copy()
        out.lower = self.lower.copy()
        out.upper = self.upper.copy()
        out.is_binary = self.is_binary.copy()
        out.row_index = [x.copy() for x in self.row_index]
        out.row_value = [x.copy() for x in self.row_value]
        out.relations = list(self.relations)
        out.rhs = list(self.rhs)
        return out


def dump_problem(problem: LpProblem) -> str:
    """Plain-text dump for diffing: objective, bounds, then one row per line.

    Row lines read ``j:coeff ... REL rhs`` with variable indices ascending;
    bound lines read ``bound j lo hi``.  Floats use repr so the dump is
    lossless.
    """
    lines = ["min " + " ".join(f"{j}:{c!r}" for j, c in enumerate(problem.objective) if c != 0.0)]
    for j in range(problem.num_vars):
        lo, hi = problem.lower[j], problem.upper[j]
        tag = " binary" if problem.is_binary[j] else ""
        if np.isfinite(lo) or np.isfinite(hi) or tag:
            lines.append(f"bound {j} {lo!r} {hi!r}{tag}")
    for idx, val, rel, rhs in zip(problem.row_index, problem.row_value, problem.relations, problem.rhs):
        body = " ".join(f"{j}:{v!r}" for j, v in zip(idx, val))
        lines.append(f"{body} {rel} {rhs!r}")
    return "\n".join(lines) + "\n"


@dataclass
class LpSolution:
    """Simplex output; ``duals`` holds one multiplier per input row.

    ``basis``/``vstate`` describe the final basis over the slack-extended
    variable vector and can be fed back in as a warm start.  ``warm_used``
    is True when the solve started from the offered warm basis, and False
    when none was offered or it was rejected (wrong size, a repeated index
    or a singular basis) in favour of the cold start.
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


@dataclass
class MipSolution:
    """Branch-and-bound output for binary programs (minimization).

    ``gap`` is |incumbent - bound| / max(1, |incumbent|); ``bound`` is the
    best proven lower bound over the open search tree.
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
