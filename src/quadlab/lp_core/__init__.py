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
"""

from .problem import (
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

__all__ = [
    "LpProblem",
    "LpSolution",
    "MipSolution",
    "LpError",
    "SingularBasisError",
    "certify_objective",
    "crash_basis",
    "dump_problem",
    "solve_lp",
    "solve_mip",
]
