"""Self-contained linear and mixed-binary programming.

``solve_lp`` runs a revised simplex with two-sided variable bounds and a
deterministic pivot rule; ``solve_mip`` wraps it in best-first branch and
bound over binary variables on one relaxed copy of the problem.  Its search
loop, ``best_first``, owns the heap, the bound, the statuses, pruning and
the node count, and an ``Incumbent`` holds the best solution offered; the
caller gives only an ``expand(node)`` step.  The best-subset search in
``quadlab.sparse`` runs on the same loop.  Problems
are small to mid-sized by design: the basis inverse is kept dense.  A
solve without a usable warm basis starts from the all-slack
``crash_basis(problem, ())``.  A crash reads only the rows: it marks its
picks BASIC, the ``at_upper`` columns AT_UPPER and the rest FREE_ZERO,
and the start settles each state to its column's bounds, so a crash pair
stays valid after ``set_bounds`` and ``set_relation``.

An ``LpProblem`` holds its rows once, as the read-only [A | I] the
simplex reads (``matrix`` is a view of it), and every builder appends
them in dense blocks with ``LpProblem.add_rows``; the crash, every solve
and every copy share that array.  It also keeps the slack-extended bounds
and each column's kind, refreshed by each write for the columns it
touches, so a solve classifies nothing; ``lower`` and ``upper`` are
read-only views, written through ``set_bounds`` or ``mark_binary``, and
``relations`` is read-only, written through ``set_relation``.  A start that is primal feasible already skips phase 1.

The regression and portfolio fitters all solve one LP shape, a dual with a
few rows and one boxed column per observation or scenario.  They build it
with array ``LpProblem.set_bounds`` calls and one ``add_rows`` block per
row group, start it from ``crash_basis``
(bound guesses, and candidate basic columns ranked by the caller),
and check the answer with ``certify_objective`` against the primal
objective recomputed from it.  ``lower_share`` reads the level a
part-balancing dual induces off its multipliers.  A primal infeasible
start whose nonbasics are boxed or dual feasible already first goes
through a dual phase whose bound-flipping ratio test crosses many
breakpoints per iteration; a regression dual at n = 10,000 then takes a
few iterations instead of tens to hundreds.  ``LpSolution.phase_iterations`` and ``bound_flips`` say what
a solve did.

Rows relate by ``<=``, ``=``, ``>=`` or ``free``; a free row constrains
nothing (unbounded slack, zero dual).  The best-subset search keeps one
such dual and frees the rows of excluded columns with
``LpProblem.set_relation``; an optimal basis stays primal feasible when
rows are freed, so each child relaxation warm-starts into phase 2.  It
passes its prune threshold as ``solve_lp``'s ``cutoff``: phase 2, whose
iterates are feasible and whose objective never rises, stops with status
``cutoff`` once the objective reaches it, since by weak duality the value
reached already bounds the child's error past the incumbent.  Only these
cut children end early; no other solve passes a cutoff.

``solve_box_stack`` solves a stack of same-shape LPs, min c.u s.t.
A_l u = 0, lo <= u <= hi with c, lo and hi shared, by the bound-flipping
dual of ``solve_lp``'s dual phase written over the stack: each numpy step
advances every unfinished LP by one long step.  Each LP starts from a
crash basis of the k columns with the smallest least-squares reduced
costs (the slack basis where that basis is singular, ill-conditioned or
impossible), with every nonbasic column at the bound its reduced cost
prefers, so the start is dual feasible.  Phase-2 pricing certifies each
LP once it is primal feasible; an LP that fails it is handed to
``solve_lp``, warm-started from its final basis, after the stack's loop.
A dual step that breaks down raises ``StackStallError``, the iteration cap
``StackLimitError``, and a hand-off that does not end optimal
``StackError``; each is a ``StackError`` naming the LP's stack position.
It exists for the exhaustive best-subset oracle, whose C(d, k) centred-LAD
duals (one per support) have exactly that shape.
"""

from .problem import (
    OBJ_MATCH_TOL,
    LpProblem,
    LpSolution,
    MipSolution,
    LpError,
    LpIndexError,
    SingularBasisError,
    certify_objective,
)
from .simplex import crash_basis, crash_pool, lower_share, solve_lp
from .branch_bound import Incumbent, best_first, relative_gap, solve_mip
from .stacked import StackError, StackLimitError, StackSolution, StackStallError, solve_box_stack

__all__ = [
    "OBJ_MATCH_TOL",
    "Incumbent",
    "LpProblem",
    "LpSolution",
    "MipSolution",
    "LpError",
    "LpIndexError",
    "SingularBasisError",
    "StackError",
    "StackLimitError",
    "StackSolution",
    "StackStallError",
    "best_first",
    "certify_objective",
    "crash_basis",
    "crash_pool",
    "lower_share",
    "relative_gap",
    "solve_box_stack",
    "solve_lp",
    "solve_mip",
]
