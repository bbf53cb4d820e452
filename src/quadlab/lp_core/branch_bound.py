"""Best-first search, and branch and bound over binary variables on it.

``best_first`` is the one search loop of the library.  Its caller gives a
root node with its bound, an ``Incumbent`` and an ``expand(node)``
generator; the loop owns everything else:

* the heap of (bound, counter, node), the counter breaking ties first-in
  first-out;
* the reported bound, max(bound so far, min(heap top, incumbent)), and
  its history;
* the statuses: ``optimal`` when the gap closes or the tree is exhausted,
  ``feasible`` (or ``node_limit`` without an incumbent) on the node
  budget, ``time_limit`` on a deadline taken when the loop starts;
* pruning and the node count: a popped node, or a yielded child, whose
  bound reaches the incumbent's value less PRUNE_TOL is dropped, and only
  the popped nodes that are not dropped are counted.

A child is checked against the incumbent as it is yielded, so a leaf that
``expand`` offers first prunes the children it yields after it.  An offer
replaces the incumbent only when it improves on it by more than
IMPROVE_TOL.  Wall-clock limits make results timing-dependent, so a
deterministic node budget is the primary stopping rule for reproducible
runs; the deadline is a backstop.

Two expands run on the loop.  ``solve_mip``'s is here: a node is its
binary bounds and its parent's basis.  On pop, the bounds go onto the one
relaxed copy of the problem, which every solve shares, and the solve
warm-starts from the parent basis.  A node whose LP value reaches the
incumbent is pruned; an integral point is offered; otherwise the most
fractional binary (ties toward the lowest index) is fixed to 0 and to 1,
and both children are yielded keyed by the node's LP value.  A
nearest-integer rounding at the root, and a caller supplied assignment,
seed the incumbent.  The other expand is the include/exclude subset
search in ``quadlab.sparse``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from .problem import LpError, LpProblem, MipSolution
from .simplex import solve_lp

INT_TOL = 1e-6
PRUNE_TOL = 1e-12
IMPROVE_TOL = 1e-15


def relative_gap(value, bound):
    """|value - bound| / max(1, |value|), the reported gap; inf without a value."""
    if value == np.inf:
        return np.inf
    return abs(value - bound) / max(1.0, abs(value))


class Incumbent:
    """The best solution offered so far and its value; inf and None before any."""

    __slots__ = ("value", "solution")

    def __init__(self):
        self.value = np.inf
        self.solution = None

    def offer(self, value, solution) -> None:
        if value < self.value - IMPROVE_TOL:
            self.value, self.solution = value, solution

    def threshold(self) -> float:
        """The prune threshold: the incumbent's value less PRUNE_TOL (inf before any)."""
        return self.value - PRUNE_TOL

    def prunes(self, bound) -> bool:
        """True when a node with this bound cannot improve on the incumbent."""
        return bound >= self.threshold()


def best_first(root_bound, root, expand, incumbent: Incumbent, gap_tol: float,
               max_nodes: int | None, time_limit_s: float) -> MipSolution:
    """Run the best-first search described in the module docstring.

    ``expand(node)`` yields (bound, child) pairs and may offer leaves to
    ``incumbent`` on the way.  Returns the status, the incumbent (``x`` is
    its solution, whatever the caller offered), the bound, the gap, the
    node count, the bound history and, in ``message``, the open nodes at
    exit.  An exhausted tree without an incumbent is ``infeasible``.
    """
    deadline = time.monotonic() + time_limit_s
    counter = 0
    heap = [(root_bound, counter, root)]
    nodes = 0
    bound = root_bound
    history = [bound]
    status = None
    while heap:
        bound = max(bound, min(heap[0][0], incumbent.value))
        history.append(bound)
        if relative_gap(incumbent.value, bound) <= gap_tol:
            status = "optimal"
            break
        if max_nodes is not None and nodes >= max_nodes:
            status = "feasible" if incumbent.solution is not None else "node_limit"
            break
        if time.monotonic() >= deadline:
            status = "time_limit"
            break
        key, _, node = heapq.heappop(heap)
        if incumbent.prunes(key):
            continue
        nodes += 1
        for child_bound, child in expand(node):
            if not incumbent.prunes(child_bound):
                counter += 1
                heapq.heappush(heap, (child_bound, counter, child))

    if status is None:
        # Search tree exhausted: the incumbent, if any, is optimal.
        if incumbent.solution is None:
            return MipSolution(status="infeasible", nodes=nodes, bound_history=history)
        bound = max(bound, incumbent.value)
        history.append(bound)
        status = "optimal"
    bound = min(bound, incumbent.value)
    objective = None if incumbent.solution is None else incumbent.value
    return MipSolution(status=status, x=incumbent.solution, objective=objective,
                       bound=bound, gap=relative_gap(incumbent.value, bound), nodes=nodes,
                       bound_history=history, message=f"{len(heap)} open nodes at exit")


def solve_mip(
    problem: LpProblem,
    time_limit_s: float = 300.0,
    gap_tol: float = 1e-9,
    max_nodes: int | None = None,
    incumbent_hint=None,
) -> MipSolution:
    """Minimize a mixed-binary LP; requires at least one binary flag.

    Returns the incumbent with the best proven bound, the relative gap
    |incumbent - bound| / max(1, |incumbent|), and the node count.  Status is
    ``optimal`` once the gap closes below ``gap_tol``, ``time_limit`` on the
    clock, ``feasible`` on the node budget with an incumbent, ``node_limit``
    on the node budget without one, and ``infeasible`` when the root
    relaxation (hence the program) is empty.
    ``incumbent_hint`` holds one value per binary, in index order; it is
    rounded, fixed and polished into a first incumbent.
    """
    problem.validate()
    binary_idx = np.nonzero(problem.is_binary)[0]
    if binary_idx.size == 0:
        raise LpError("solve_mip needs at least one binary variable")
    relaxed = problem.copy()
    relaxed.is_binary[:] = False

    root = solve_lp(relaxed)
    if root.status == "infeasible":
        return MipSolution(status="infeasible", nodes=1, iterations=root.iterations)
    if root.status not in ("optimal",):
        raise LpError(f"root relaxation ended with status {root.status}")

    incumbent = Incumbent()
    total_iters = root.iterations

    def fix_and_polish(binary_values) -> None:
        nonlocal total_iters
        fixed = np.round(binary_values)
        relaxed.set_bounds(binary_idx, fixed, fixed)
        sol = solve_lp(relaxed)
        total_iters += sol.iterations
        if sol.status == "optimal":
            incumbent.offer(sol.objective, sol.x)

    if incumbent_hint is not None:
        hint = np.asarray(incumbent_hint, dtype=float)
        if hint.size != binary_idx.size:
            raise LpError("incumbent hint must hold one value per binary")
        fix_and_polish(hint)
    fix_and_polish(np.round(root.x[binary_idx]))

    def expand(node):
        nonlocal total_iters
        blo, bup, warm = node
        relaxed.set_bounds(binary_idx, blo, bup)
        sol = solve_lp(relaxed, warm=warm)
        total_iters += sol.iterations
        if sol.status == "infeasible":
            return
        if sol.status != "optimal":
            raise LpError(f"node relaxation ended with status {sol.status}")
        if incumbent.prunes(sol.objective):
            return
        frac = np.minimum(sol.x[binary_idx], 1.0 - sol.x[binary_idx])
        if np.max(frac) <= INT_TOL:
            incumbent.offer(sol.objective, sol.x)
            return
        branch_pos = int(np.argmax(frac))
        for fixed_value in (0.0, 1.0):
            clo, cup = blo.copy(), bup.copy()
            clo[branch_pos] = cup[branch_pos] = fixed_value
            yield sol.objective, (clo, cup, (sol.basis, sol.vstate))

    out = best_first(root.objective, (problem.lower[binary_idx], problem.upper[binary_idx],
                                      (root.basis, root.vstate)),
                     expand, incumbent, gap_tol, max_nodes, time_limit_s)
    out.iterations = total_iters
    return out
