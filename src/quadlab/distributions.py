"""Seeded data generation and empirical-sample construction.

All generators are deterministic functions of (spec, seed).  Parallel
replications must derive their seeds as ``base_seed + replication_index``;
that rule is relied on by the experiment harness.

``skew_normal_cdf_at_zero`` needs no SciPy: it evaluates the closed
form Phi(m) - 2 T(m, a) with Owen's T function on a fixed Gauss-Legendre
rule.  A quadrature of the density would load ``scipy.integrate`` and
``scipy.special``: about 0.3 s and 52 MiB in a fresh interpreter beyond
numpy (2-core x86-64 VM, medians of 7), where quadlab needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np


class SortedView:
    """Distinct sorted atoms, merged probabilities and step CDF; upper-tail sums on first read.

    For atoms a_1 < ... < a_k, ``cdf`` holds F(a_1), ..., F(a_k) = 1 and
    ``grid`` has length k+1: 0, F(a_1), ..., F(a_k).  ``tail[j]`` is
    E[X; X > a_j], the expectation of the atoms strictly above the j-th
    distinct atom (``tail[0]`` is the full mean, ``tail[k]`` is 0); it
    equals int_grid[j]^1 VaR-_beta dbeta.  ``var`` and ``cvar`` read only
    ``atoms`` and ``cdf``, so ``grid`` and ``tail`` are built on first read
    and cached.  Every array is read-only; iterating a view yields all five
    in the order of ``_fields``, building the lazy ones.
    """

    _fields = ("atoms", "probabilities", "cdf", "grid", "tail")

    def __init__(self, atoms: np.ndarray, probabilities: np.ndarray, cdf: np.ndarray):
        self.atoms = atoms
        self.probabilities = probabilities
        self.cdf = cdf

    def __iter__(self):
        return (getattr(self, name) for name in self._fields)

    @cached_property
    def grid(self) -> np.ndarray:
        return _read_only(np.concatenate(([0.0], self.cdf)))

    @cached_property
    def tail(self) -> np.ndarray:
        weighted = self.atoms * self.probabilities
        return _read_only(np.concatenate((weighted[::-1].cumsum()[::-1], [0.0])))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """A finite discrete distribution: atoms with probabilities summing to 1.

    Samples are immutable: the constructor stores read-only copies of
    ``atoms`` and ``probabilities``, so the caller's arrays stay writable and
    later writes to them do not reach the sample.  That is what makes the
    cached ``sorted_view`` and ``mean()`` safe to reuse.  Equality is
    identity: those caches belong to the instance.

    Samples built inside the library skip the copies and own their fresh
    atoms: ``make_sample`` checks its values finite and hands them over
    through ``_owning``.  The portfolio loss samples (``_uniform_sample``)
    share one read-only vector of equal probabilities, and its cdf, with
    every other loss sample of their problem, and keep the permutation of
    their stable sort beside the view (``_UniformSample.sort``), which the
    portfolio crash reads.  Other samples keep no permutation.
    """

    atoms: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        atoms = _read_only(np.array(self.atoms, dtype=float))
        probs = _read_only(np.array(self.probabilities, dtype=float))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probabilities", probs)
        if atoms.ndim != 1 or atoms.size < 1:
            raise ValueError("sample needs at least one atom")
        if probs.shape != atoms.shape:
            raise ValueError("atoms and probabilities must have equal length")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(probs.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def _owning(cls, atoms: np.ndarray, probabilities: np.ndarray) -> EmpiricalSample:
        """A sample that takes ownership of ``atoms``, checking nothing.

        The caller has checked that ``atoms``, a fresh 1-d float array that
        no caller keeps, is finite, and that ``probabilities`` is a float
        vector of its length (nonnegative, summing to 1 within 1e-12); both
        are flagged read-only, not copied.
        """
        sample = object.__new__(cls)
        object.__setattr__(sample, "atoms", _read_only(atoms))
        object.__setattr__(sample, "probabilities", _read_only(probabilities))
        return sample

    @property
    def size(self) -> int:
        return self.atoms.size

    def mean(self) -> float:
        return self._mean

    @cached_property
    def _mean(self) -> float:
        return float(self.atoms @ self.probabilities)

    @cached_property
    def sorted_view(self) -> SortedView:
        """The sample sorted once (see ``SortedView``).

        Built on first use and cached; its arrays are read-only.  The last
        CDF entry is set to exactly 1.  Tied atoms are merged only when the
        sorted sample has any.
        """
        order = np.argsort(self.atoms, kind="stable")
        atoms = self.atoms[order]
        probs = self.probabilities[order]
        distinct = _distinct(atoms)
        if distinct.all():
            probs += 0.0  # as the merge's 0.0 + p: a -0.0 weight reads 0.0
            return _view(atoms, probs)
        return _view(*_merge_ties(atoms, probs, distinct))


class _UniformSample(EmpiricalSample):
    """A sample on a shared vector of equal probabilities, which keeps its sort.

    Built by ``_uniform_sample``.  Every probability is the same, so the
    probabilities gathered in sorted order are the shared vector itself,
    and when no atoms tie the view's cdf is the vector's shared cdf: the
    view costs one argsort, one gather and one tie test, and holds no
    probability or cdf array of its own.
    """

    @cached_property
    def sort(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, atoms[order]): the stable argsort of the atoms and the atoms in that order.

        The order is (value, index) order.  Both arrays are read-only, and
        without ties the sorted atoms are the view's ``atoms``.
        """
        order = self.atoms.argsort(kind="stable")
        return _read_only(order), _read_only(self.atoms[order])

    @cached_property
    def sorted_view(self) -> SortedView:
        """``EmpiricalSample.sorted_view`` bit for bit, read off ``sort``."""
        atoms = self.sort[1]
        distinct = _distinct(atoms)
        if distinct.all():
            return SortedView(atoms, self.probabilities, self._cdf)
        return _view(*_merge_ties(atoms, self.probabilities, distinct))


def _uniform_sample(atoms: np.ndarray, probabilities: np.ndarray,
                    cdf: np.ndarray) -> EmpiricalSample:
    """A sample owning ``atoms`` on shared equal ``probabilities`` and their ``cdf``.

    ``atoms`` must be a fresh 1-d float array that no caller keeps;
    non-finite atoms raise ``ValueError``.  ``probabilities`` must be a
    checked read-only vector of equal entries (``_uniform_probabilities``)
    and ``cdf`` their ``_step_cdf``; both are shared, not copied.
    """
    if not np.isfinite(atoms).all():
        raise ValueError("atoms must be finite")
    sample = _UniformSample._owning(atoms, probabilities)
    object.__setattr__(sample, "_cdf", cdf)
    return sample


def _distinct(atoms: np.ndarray) -> np.ndarray:
    """Flags of the sorted ``atoms`` that differ from the one before; the first is flagged."""
    distinct = np.empty(atoms.size, dtype=bool)
    distinct[0] = True
    np.not_equal(atoms[1:], atoms[:-1], out=distinct[1:])
    return distinct


def _merge_ties(atoms: np.ndarray, probs: np.ndarray, distinct: np.ndarray):
    """Sorted atoms with each run of equal ones merged, its probabilities summed.

    ``bincount`` adds each run in order onto 0.0, as ``np.add.at`` onto
    zeros does, so a -0.0 weight reads 0.0; ``np.add.reduceat`` would not
    match it bit for bit, since it adds a run's first weight to the sum of
    the rest.
    """
    return atoms[distinct], np.bincount(distinct.cumsum() - 1, probs)


def _view(atoms: np.ndarray, probs: np.ndarray) -> SortedView:
    """The ``SortedView`` of distinct sorted atoms and their probabilities."""
    return SortedView(_read_only(atoms), _read_only(probs), _step_cdf(probs))


def _step_cdf(probs: np.ndarray) -> np.ndarray:
    """``np.cumsum(probs)`` with its last entry set to exactly 1; read-only."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return _read_only(cdf)


def make_sample(values, weights=None) -> EmpiricalSample:
    """Build an EmpiricalSample; missing weights default to equal 1/n.

    Weights are normalized to sum to 1.  Rejects empty input, non-finite
    values, and negative or all-zero weights.  The values are copied once,
    and the sample owns the copy.
    """
    values = np.array(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if weights is None:
        return EmpiricalSample._owning(values, _uniform_probabilities(values.size))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape:
        raise ValueError("weights must match values in length")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    return EmpiricalSample._owning(values, _normalized(weights / total))


def _uniform_probabilities(n: int) -> np.ndarray:
    """Equal probabilities 1/n as ``make_sample`` stores them; read-only and checked."""
    return _normalized(np.full(n, 1.0 / n))


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Nonnegative ``probs`` renormalized to sum to 1 at float precision; read-only.

    Raises ``ValueError`` as ``EmpiricalSample`` does if the sum still misses 1
    by more than 1e-12.
    """
    probs = probs / probs.sum()
    if not abs(probs.sum() - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("probabilities must sum to 1 within 1e-12")
    return _read_only(probs)


@dataclass(frozen=True)
class SkewNormalSpec:
    """Skew-normal law with shape ``a``; optionally standardized to mean 0, sd 1.

    Standardization uses the population moments of the base distribution:
    mean delta*sqrt(2/pi) and variance 1 - 2*delta^2/pi with
    delta = a / sqrt(1 + a^2), which is +-1 to double precision once a^2
    overflows (|a| above about 1.34e154).
    """

    shape: float
    standardized: bool = True

    def __post_init__(self):
        if not math.isfinite(self.shape):
            raise ValueError("shape must be finite")

    @property
    def delta(self) -> float:
        a = self.shape
        scale = 1.0 + a * a
        if math.isinf(scale):
            return math.copysign(1.0, a)
        return a / math.sqrt(scale)

    @property
    def base_mean(self) -> float:
        return self.delta * math.sqrt(2.0 / math.pi)

    @property
    def base_sd(self) -> float:
        return math.sqrt(1.0 - 2.0 * self.delta * self.delta / math.pi)


def sample_skew_normal(spec: SkewNormalSpec, n: int, seed: int) -> np.ndarray:
    """Draw n skew-normal variates, exactly, via the two-normal representation.

    With U0, U1 independent standard normal, delta*|U0| + sqrt(1-delta^2)*U1
    follows the base skew-normal law with shape a; the standardized variant
    then subtracts the population mean and divides by the population sd.
    At a=0 the output equals the U1 stream unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 2))
    d = spec.delta
    raw = d * np.abs(u[:, 0]) + math.sqrt(1.0 - d * d) * u[:, 1]
    if spec.standardized:
        return (raw - spec.base_mean) / spec.base_sd
    return raw


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [0, 1], built on first use.

    Exact for polynomials of degree 47; on [0, 1] the integrand of Owen's T
    is analytic up to its poles at +-i, so the rule's error is far below
    double precision.  ``numpy.polynomial`` is imported here, not at module
    import, where it would cost about 5 ms that the sampling does not need.
    """
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(24)
    return _read_only((t + 1.0) / 2.0), _read_only(w / 2.0)


def _owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) = (1/2pi) int_0^a exp(-h^2 (1 + x^2)/2) / (1 + x^2) dx.

    T is even in h and odd in a.  For 0 <= a <= 1 the Gauss-Legendre rule
    integrates it directly; for a > 1 and h >= 0 the reflection
    T(h, a) = Phi(h)/2 + Phi(ah)/2 - Phi(h) Phi(ah) - T(ah, 1/a)
    (Owen, Ann. Math. Statist. 27, 1956) brings the range back into
    [0, 1], with the first three terms summed without cancellation as
    (Phi(h) Q(ah) + Phi(ah) Q(h))/2, Q = 1 - Phi.
    """
    h = abs(h)
    if a < 0.0:
        return -_owens_t(h, -a)
    if a > 1.0:
        ah = a * h
        head = _normal_cdf(h) * _normal_cdf(-ah) + _normal_cdf(ah) * _normal_cdf(-h)
        return 0.5 * head - _owens_t(ah, 1.0 / a)
    nodes, weights = _legendre_rule()
    q = 1.0 + (a * nodes) ** 2
    return a / (2.0 * math.pi) * float(weights @ (np.exp(-0.5 * h * h * q) / q))


def skew_normal_cdf_at_zero(a: float) -> float:
    """CDF of the standardized skew-normal at 0, in closed form.

    The standardized zero is the base point m = delta*sqrt(2/pi), where the
    base law's CDF is Phi(m) - 2 T(m, a) with Owen's T function.
    """
    if not math.isfinite(a):
        raise ValueError("shape must be finite")
    m = SkewNormalSpec(shape=a).base_mean
    return _normal_cdf(m) - 2.0 * _owens_t(m, a)


@dataclass(frozen=True)
class DesignSpec:
    """Gaussian design with AR(1)-style covariance Sigma[i, j] = rho^|i-j|."""

    dimension: int
    correlation: float = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not abs(self.correlation) < 1.0:
            raise ValueError("correlation must satisfy |rho| < 1")

    def covariance(self) -> np.ndarray:
        idx = np.arange(self.dimension)
        return self.correlation ** np.abs(idx[:, None] - idx[None, :])


def sample_correlated_design(spec: DesignSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. rows from N(0, Sigma) with Sigma[i, j] = rho^|i-j|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, spec.dimension))
    if spec.correlation == 0.0:
        return z
    chol = np.linalg.cholesky(spec.covariance())
    return z @ chol.T
