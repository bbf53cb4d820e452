"""Fixed reference computations that gauge the machine's current speed.

On a shared virtual machine one core's speed drifts by up to 1.8x in phases
of seconds to minutes, in wall and CPU time alike, so two runs of the same
code minutes apart can differ by more than any useful regression bound.
The benchmark times a reference kernel right after every instance and
reports the instance's time as a multiple of it: a slow phase stretches
both.

Different kinds of work slow down by different amounts in one phase, so
each workload is paired with the kernels whose work resembles its own, and
whose times tracked its times most closely when both were sampled
alternately over five minutes:

- ``small_arrays``: many numpy calls on arrays of a dozen entries, where
  the cost is call dispatch (the simplex bookkeeping of small and warm
  solves).
- ``long_arrays``: a matrix-vector product, an arg-minimum and a masked
  update over 3,000 columns, then a stable sort and cumulative sum of 8,000
  atoms (pricing over many columns, and the functionals).

The kernels' inputs are fixed here, not drawn from the benchmark's seed,
and they call nothing in quadlab, so a change to quadlab moves the
instance's time and not the kernel's.

Set-up is mostly importing modules in a fresh interpreter, which the
kernels do not resemble: its reference is ``BASELINE_IMPORTS``, the
third-party imports quadlab makes, timed in a fresh interpreter of its own.
"""

from __future__ import annotations

from time import perf_counter, process_time

import numpy as np

_RNG = np.random.default_rng(20260)
_SMALL = [_RNG.standard_normal(12) for _ in range(8)]
_BLOCK = _RNG.standard_normal((6, 6))
_MATRIX = _RNG.standard_normal((4, 3000))
_VECTOR = _RNG.standard_normal(3000)
_ATOMS = _RNG.standard_normal(8000)


def small_arrays() -> float:
    acc = 0.0
    for i in range(400):
        a = _SMALL[i % 8]
        x = np.zeros(12)
        x[3] = a[2]
        y = _BLOCK @ a[:6]
        acc += float(np.argmin(a)) + float(y[0]) + float(np.sum(np.maximum(a, 0.0)))
    return acc + float(x[3])


def long_arrays() -> float:
    x = _VECTOR.copy()
    acc = 0.0
    for step in range(60):
        y = _MATRIX @ x
        acc += float(y[0]) + int(np.argmin(x))
        x[x > step / 60.0] *= 0.999
    order = np.argsort(_ATOMS, kind="stable")
    return acc + float(np.cumsum(_ATOMS[order])[-1])


# Seconds one call takes on a 2-core x86-64 virtual machine in a quiet
# phase; reported times are in seconds of a machine at that speed.
NOMINAL_S = {small_arrays: 0.003, long_arrays: 0.003}

KERNELS = {
    "portfolio_sweep": (small_arrays,),
    "sparse_subset": (small_arrays,),
    "regression_fits": (small_arrays, long_arrays),
    "quadrangle_eval": (long_arrays,),
}


# Imports of the set-up reference, and their time in a fresh interpreter on
# that machine in a quiet phase.
BASELINE_IMPORTS = ("import time; start = time.perf_counter(); "
                    "import numpy, scipy.integrate, scipy.special; "
                    "print(time.perf_counter() - start)")
BASELINE_NOMINAL_S = 0.5


def nominal_s(workload: str) -> float:
    """Seconds the workload's kernels take at the reference speed."""
    return sum(NOMINAL_S[kernel] for kernel in KERNELS[workload])


def timed(workload: str) -> tuple[float, float]:
    """Wall and CPU seconds of one call of each of the workload's kernels."""
    cpu0 = process_time()
    start = perf_counter()
    for kernel in KERNELS[workload]:
        kernel()
    return perf_counter() - start, process_time() - cpu0
