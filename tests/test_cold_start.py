"""A fresh interpreter runs quadlab without loading SciPy.

The library needs only numpy: the functionals, the LP crash and solve,
and the skew-normal level load no SciPy module; only the tests load it,
for HiGHS.  Each check runs in a new interpreter, because this test
process has SciPy loaded already.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED = ("def loaded():\n"
          "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n")

EVALS = """
from quadlab.distributions import make_sample
from quadlab.functionals import (eval_biased_mean_quadrangle, eval_mean_l1_quadrangle,
                                 eval_quantile_quadrangle)
sample = make_sample([0.5, -1.25, 2.0, 0.0, 3.5])
evals = repr([eval_quantile_quadrangle(sample, 0.8), eval_biased_mean_quadrangle(sample, 0.3),
              eval_mean_l1_quadrangle(sample)])
"""

CRASH = """
import numpy as np
from quadlab.lp_core import LpProblem, crash_basis, solve_lp
rng = np.random.default_rng(7)
rows = rng.standard_normal((4, 6))
problem = LpProblem(6)
problem.set_objective(rng.standard_normal(6))
for j in range(6):
    problem.set_bounds(j, -1.0, 1.0)
for row in rows:
    problem.add_row(row, "<=", 0.5)
basis, vstate = crash_basis(problem, (), np.arange(10)[::-1])
s = solve_lp(problem, (basis, vstate))
lp = repr((basis.tolist(), vstate.tolist(), s.status, s.objective, s.x.tolist(),
           s.iterations, s.basis.tolist()))
"""

SKEW = """
from quadlab.distributions import skew_normal_cdf_at_zero
level = repr(skew_normal_cdf_at_zero(10.0))
"""


def _fresh(code: str):
    """The literal a new interpreter prints last, after running ``code`` on ``src``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", "import sys\n" + LOADED + code],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _here(code: str, name: str) -> str:
    """``name`` after running ``code`` in this process, where SciPy is loaded."""
    scope = {}
    exec(code, scope)
    return scope[name]


def test_import_functionals_and_eval_load_no_scipy(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("y\n0.5\n-1.25\n2.0\n0.0\n3.5\n")
    out = tmp_path / "eval.json"
    seen = _fresh(f"""
import quadlab
after_import = loaded()
import quadlab.cli
after_cli = loaded()
{EVALS}
after_evals = loaded()
rc = quadlab.cli.main(["eval", "--family", "quantile", "--alpha", "0.8", "--input", {str(data)!r},
                       "--column", "y", "--output", {str(out)!r}])
print(repr((after_import, after_cli, after_evals, rc, loaded(), evals)))
""")
    assert seen[:5] == ([], [], [], 0, [])
    assert seen[5] == _here(EVALS, "evals")
    assert out.exists()


def test_crash_and_solve_load_no_scipy_and_match_here():
    before, after, lp = _fresh(f"""
import quadlab
before = loaded()
{CRASH}
print(repr((before, loaded(), lp)))
""")
    assert before == [] and after == []
    assert lp == _here(CRASH, "lp")
    assert ast.literal_eval(lp)[2] == "optimal"


def test_skew_normal_level_loads_no_scipy_and_matches_here():
    before, after, level = _fresh(f"""
import quadlab
before = loaded()
{SKEW}
print(repr((before, loaded(), level)))
""")
    assert before == [] and after == []
    assert level == _here(SKEW, "level")
    assert math.isfinite(float(level))
