"""Best-first branch and bound over binary variables.

A node is its binary bounds and its parent's basis.  Nodes enter a heap
keyed by the LP bound of their parent (a valid lower bound for the
subtree) and are solved on pop: the bounds go onto the one relaxed copy
of the problem, which every solve shares, and the solve warm-starts from
the parent basis.  Branching picks the most fractional binary, ties toward
the lowest index.  A nearest-integer rounding heuristic at the root, or a
caller supplied assignment, seeds the incumbent.

Wall-clock limits make results timing-dependent, so a deterministic
``max_nodes`` budget is offered as the primary stopping rule for
reproducible experiments; the time limit remains as a backstop.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from .problem import LpError, LpProblem, MipSolution
from .simplex import solve_lp

INT_TOL = 1e-6
PRUNE_TOL = 1e-10


def _gap(incumbent, bound):
    if incumbent is None:
        return np.inf
    return abs(incumbent - bound) / max(1.0, abs(incumbent))


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
    start = time.monotonic()
    relaxed = problem.copy()
    relaxed.is_binary[:] = False

    root = solve_lp(relaxed)
    if root.status == "infeasible":
        return MipSolution(status="infeasible", nodes=1, iterations=root.iterations)
    if root.status not in ("optimal",):
        raise LpError(f"root relaxation ended with status {root.status}")

    incumbent_x = None
    incumbent_obj = None
    total_iters = root.iterations

    def try_incumbent(x_obj):
        nonlocal incumbent_x, incumbent_obj
        x, obj = x_obj
        if incumbent_obj is None or obj < incumbent_obj - 1e-12:
            incumbent_x, incumbent_obj = x.copy(), obj

    def fix_and_polish(binary_values) -> tuple | None:
        nonlocal total_iters
        fixed = np.round(binary_values)
        relaxed.set_bounds(binary_idx, fixed, fixed)
        sol = solve_lp(relaxed)
        total_iters += sol.iterations
        if sol.status == "optimal":
            return sol.x, sol.objective
        return None

    if incumbent_hint is not None:
        hint = np.asarray(incumbent_hint, dtype=float)
        if hint.size != binary_idx.size:
            raise LpError("incumbent hint must hold one value per binary")
        polished = fix_and_polish(hint)
        if polished is not None:
            try_incumbent(polished)
    rounded = fix_and_polish(np.round(root.x[binary_idx]))
    if rounded is not None:
        try_incumbent(rounded)

    # Heap entries: (parent bound, tiebreak counter, binary lower/upper, warm basis).
    # A parent's LP value is a valid lower bound for its children, so the heap
    # minimum (capped by the incumbent) is a valid global lower bound.
    counter = 0
    heap = [(root.objective, counter, problem.lower[binary_idx],
             problem.upper[binary_idx], (root.basis, root.vstate))]
    nodes = 0
    reported_bound = root.objective
    bound_history = [reported_bound]
    status = None

    while heap:
        lb = heap[0][0]
        if incumbent_obj is not None:
            lb = min(lb, incumbent_obj)
        reported_bound = max(reported_bound, lb)
        bound_history.append(reported_bound)
        if incumbent_obj is not None and _gap(incumbent_obj, reported_bound) <= gap_tol:
            status = "optimal"
            break
        if max_nodes is not None and nodes >= max_nodes:
            status = "feasible" if incumbent_obj is not None else "node_limit"
            break
        if time.monotonic() - start > time_limit_s:
            status = "time_limit"
            break

        parent_bound, _, blo, bup, warm = heapq.heappop(heap)
        if incumbent_obj is not None and parent_bound >= incumbent_obj - PRUNE_TOL:
            continue
        relaxed.set_bounds(binary_idx, blo, bup)
        sol = solve_lp(relaxed, warm=warm)
        nodes += 1
        total_iters += sol.iterations
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise LpError(f"node relaxation ended with status {sol.status}")
        if incumbent_obj is not None and sol.objective >= incumbent_obj - PRUNE_TOL:
            continue
        frac = np.minimum(sol.x[binary_idx], 1.0 - sol.x[binary_idx])
        if np.max(frac) <= INT_TOL:
            try_incumbent((sol.x, sol.objective))
            continue
        branch_pos = int(np.argmax(frac))
        for fixed_value in (0.0, 1.0):
            clo, cup = blo.copy(), bup.copy()
            clo[branch_pos] = cup[branch_pos] = fixed_value
            counter += 1
            heapq.heappush(heap, (sol.objective, counter, clo, cup, (sol.basis, sol.vstate)))

    if status is None:
        # Search tree exhausted: the incumbent, if any, is optimal.
        if incumbent_obj is None:
            return MipSolution(status="infeasible", nodes=nodes, iterations=total_iters,
                               bound_history=bound_history)
        reported_bound = max(reported_bound, incumbent_obj)
        bound_history.append(reported_bound)
        status = "optimal"

    if incumbent_obj is not None:
        reported_bound = min(reported_bound, incumbent_obj)
    gap = _gap(incumbent_obj, reported_bound)
    return MipSolution(
        status=status,
        x=incumbent_x,
        objective=incumbent_obj,
        bound=reported_bound,
        gap=gap,
        nodes=nodes,
        iterations=total_iters,
        bound_history=bound_history,
        message=f"{len(heap)} open nodes at exit",
    )
