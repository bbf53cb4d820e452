"""Self-contained linear and mixed-binary programming.

``solve_lp`` runs a revised simplex with two-sided variable bounds and a
deterministic pivot rule; ``solve_mip`` wraps it in best-first branch and
bound over binary variables.  Problems are small to mid-sized by design:
the basis inverse is kept dense.

The regression and portfolio fitters all solve one LP shape, a dual with a
few rows and one boxed column per observation or scenario.  They build it
with array ``LpProblem.set_bounds`` calls, start it from ``crash_basis``
(bound guesses for the boxed columns), and check the answer with
``certify_objective`` against the primal objective recomputed from it.

Rows relate by ``<=``, ``=``, ``>=`` or ``free``; a free row constrains
nothing (unbounded slack, zero dual).  The best-subset search keeps one
such dual and frees the rows of excluded columns with
``LpProblem.set_relation``; an optimal basis stays primal feasible when
rows are freed, so each child solve warm-starts straight into phase 2.
The literal epigraph LPs add their one-row-per-observation blocks with
``LpProblem.add_rows``, which takes each row's entries instead of a dense
row.

``solve_box_stack`` is the same bounded simplex written over a stack of
same-shape LPs, min c.u s.t. A_l u = 0, lo <= u <= hi with c, lo and hi
shared: each numpy step advances every unfinished LP by one pivot or bound
flip.  It exists for the exhaustive best-subset oracle, whose C(d, k)
centred-LAD duals (one per support) have exactly that shape.
"""

from .problem import (
    OBJ_MATCH_TOL,
    LpProblem,
    LpSolution,
    MipSolution,
    LpError,
    SingularBasisError,
    certify_objective,
    dump_problem,
)
from .simplex import crash_basis, solve_lp
from .branch_bound import solve_mip
from .stacked import StackLimitError, StackSolution, solve_box_stack

__all__ = [
    "OBJ_MATCH_TOL",
    "LpProblem",
    "LpSolution",
    "MipSolution",
    "LpError",
    "SingularBasisError",
    "StackLimitError",
    "StackSolution",
    "certify_objective",
    "crash_basis",
    "dump_problem",
    "solve_box_stack",
    "solve_lp",
    "solve_mip",
]
