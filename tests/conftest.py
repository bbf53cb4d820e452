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


def highs_objective(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> float:
    """Optimal value of min c.x under the given rows and bounds, solved by HiGHS.

    Asserts that HiGHS reached optimality, so a failed solve cannot pass a
    comparison as a NaN or None.
    """
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
