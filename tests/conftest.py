import numpy as np
import pytest
from scipy.optimize import linprog

from quadlab.distributions import EmpiricalSample, make_sample


def random_sample(rng, max_n: int = 50) -> EmpiricalSample:
    """Random finite sample: continuous atoms, sometimes non-uniform weights."""
    n = int(rng.integers(1, max_n + 1))
    atoms = rng.standard_normal(n) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
    if rng.random() < 0.3:
        weights = rng.uniform(0.05, 1.0, size=n)
        return make_sample(atoms, weights)
    return make_sample(atoms)


def highs_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """(status, objective, x) of min c.x under the given rows and bounds, by HiGHS.

    The status reads as ``solve_lp`` names it: "optimal", "infeasible" or
    "unbounded"; the objective and x are None unless optimal.  HiGHS runs
    without presolve, which can leave "infeasible or unbounded" undecided.
    Any other outcome fails the calling test.
    """
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={"presolve": False})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    assert status is not None, res.message
    if status != "optimal":
        return status, None, None
    return status, float(res.fun), res.x


def highs_objective(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> float:
    """Optimal value of min c.x under the given rows and bounds, solved by HiGHS.

    Asserts that HiGHS reached optimality, so a failed solve cannot pass a
    comparison as a NaN or None.
    """
    status, value, _ = highs_solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    assert status == "optimal", status
    return value


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
