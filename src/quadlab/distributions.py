"""Seeded data generation and empirical-sample construction.

All generators are deterministic functions of (spec, seed).  Parallel
replications must derive their seeds as ``base_seed + replication_index``;
that rule is relied on by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.special import ndtr


class QuadratureError(RuntimeError):
    """Numerical quadrature did not reach the requested accuracy."""


class SortedView(NamedTuple):
    """Distinct sorted atoms, merged probabilities, step CDF and upper-tail sums.

    For atoms a_1 < ... < a_k, ``grid`` has length k+1: 0, F(a_1), ...,
    F(a_k) = 1.  ``tail[j]`` is E[X; X > a_j], the expectation of the atoms
    strictly above the j-th distinct atom (``tail[0]`` is the full mean,
    ``tail[k]`` is 0); it equals int_grid[j]^1 VaR-_beta dbeta.
    """

    atoms: np.ndarray
    probabilities: np.ndarray
    cdf: np.ndarray
    grid: np.ndarray
    tail: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class EmpiricalSample:
    """A finite discrete distribution: atoms with probabilities summing to 1.

    Samples are immutable: the constructor stores read-only copies of
    ``atoms`` and ``probabilities``, so the caller's arrays stay writable and
    later writes to them do not reach the sample.  That is what makes the
    cached ``sorted_view`` safe to reuse.
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
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @property
    def size(self) -> int:
        return self.atoms.size

    def mean(self) -> float:
        return float(self.atoms @ self.probabilities)

    @cached_property
    def sorted_view(self) -> SortedView:
        """The sample sorted once, with its upper-tail sums (see ``SortedView``).

        Built on first use and cached; its arrays are read-only.  The last
        CDF entry is set to exactly 1.
        """
        order = np.argsort(self.atoms, kind="stable")
        a = self.atoms[order]
        p = self.probabilities[order]
        distinct = np.empty(a.size, dtype=bool)
        distinct[0] = True
        distinct[1:] = a[1:] != a[:-1]
        idx = np.cumsum(distinct) - 1
        atoms = a[distinct]
        probs = np.zeros(atoms.size)
        np.add.at(probs, idx, p)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        weighted = atoms * probs
        tail = np.concatenate((weighted[::-1].cumsum()[::-1], [0.0]))
        grid = np.concatenate(([0.0], cdf))
        return SortedView(*map(_read_only, (atoms, probs, cdf, grid, tail)))


def make_sample(values, weights=None) -> EmpiricalSample:
    """Build an EmpiricalSample; missing weights default to equal 1/n.

    Weights are normalized to sum to 1.  Rejects empty input, non-finite
    values, and negative or all-zero weights.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if weights is None:
        probs = np.full(values.size, 1.0 / values.size)
    else:
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
        probs = weights / total
    # Renormalize so the stored vector sums to 1 at float precision.
    probs = probs / probs.sum()
    return EmpiricalSample(values, probs)


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


def skew_normal_cdf_at_zero(a: float) -> float:
    """CDF of the standardized skew-normal at 0, by adaptive quadrature.

    Integrates the base density 2*phi(v)*Phi(a*v) from -12 up to the
    standardized-zero point m = delta*sqrt(2/pi); the density decays
    super-exponentially, so +-12 base units truncate below 1e-30.
    """
    if not math.isfinite(a):
        raise ValueError("shape must be finite")
    spec = SkewNormalSpec(shape=a)
    m = spec.base_mean

    def density(v):
        return 2.0 * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) * ndtr(a * v)

    value, abserr = integrate.quad(density, -12.0, m, epsabs=1e-8, epsrel=1e-10, limit=200)
    if abserr > 1e-6:
        raise QuadratureError(f"quadrature error estimate {abserr:.3e} exceeds 1e-6")
    return float(value)


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
