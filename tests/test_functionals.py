import numpy as np
import pytest

from quadlab.distributions import make_sample
from quadlab.functionals import (
    _TIE_TOL,
    BiasParam,
    cvar,
    cvar_via_min,
    error_projection,
    eval_biased_mean_quadrangle,
    eval_mean_l1_quadrangle,
    eval_quantile_quadrangle,
    neg_part_mean,
    pos_part_mean,
    quadrangle_relation_check,
    subregularity_probe,
    superexpectation,
    superexpectation_dual,
    var,
)
from conftest import random_sample

UNIFORM4 = make_sample([1, 2, 3, 4])


class TestVar:
    def test_degenerate(self):
        for a in (0.0, 0.3, 1.0):
            iv = var(make_sample([5.0]), a)
            assert (iv.lower, iv.upper) == (5.0, 5.0)

    def test_plateau_interval(self):
        iv = var(UNIFORM4, 0.5)
        assert (iv.lower, iv.upper) == (2.0, 3.0)

    def test_interior_level(self):
        iv = var(UNIFORM4, 0.6)
        assert (iv.lower, iv.upper) == (3.0, 3.0)

    def test_endpoints(self):
        assert var(UNIFORM4, 0.0).lower == 1.0
        assert var(UNIFORM4, 1.0).upper == 4.0


class TestCvar:
    def test_tail_average(self):
        assert cvar(UNIFORM4, 0.5) == pytest.approx(3.5, abs=1e-12)

    def test_level_zero_is_mean(self, rng):
        for _ in range(20):
            s = random_sample(rng)
            assert cvar(s, 0.0) == pytest.approx(s.mean(), abs=1e-12)

    def test_constant_sample(self):
        assert cvar(make_sample([7.0, 7.0]), 0.9) == pytest.approx(7.0, abs=1e-12)

    def test_level_one_is_max(self):
        assert cvar(UNIFORM4, 1.0) == 4.0

    def test_fractional_atom(self):
        # tail mass 0.4 splits atom 3: (0.15*3 + 0.25*4) / 0.4
        s = make_sample([1, 2, 3, 4])
        assert cvar(s, 0.6) == pytest.approx((0.15 * 3 + 0.25 * 4) / 0.4, abs=1e-12)

    def test_reads_the_grid_as_the_lower_cdf(self, rng):
        # the grid's first k entries are [0, cdf[:-1]] concatenated, bit for
        # bit, and cvar, which clips the cdf once, gives the two-np.clip bits
        levels = [k / 20 for k in range(20)] + [1 - 1e-12]
        tied = make_sample(rng.integers(0, 9, 300) * 0.25, rng.uniform(0.05, 1.0, 300))
        step = 2.0 ** -10  # the grid the quadrangle_eval benchmark draws on
        on_grid = make_sample(np.round(rng.standard_normal(8000) / step) * step,
                              rng.uniform(0.05, 1.0, 8000))
        samples = (make_sample(rng.standard_normal(500)),
                   make_sample(rng.standard_normal(500), rng.uniform(0.05, 1.0, 500)),
                   random_sample(rng), tied, on_grid,
                   make_sample([1.0, 2.0, 3.0], [0.5, 0.0, 0.5]))
        for sample in samples:
            view = sample.sorted_view
            lo = np.concatenate(([0.0], view.cdf[:-1]))
            for a in levels:
                frac = np.clip(view.cdf, a, 1.0) - np.clip(lo, a, 1.0)
                want = float((view.atoms @ frac) / (1.0 - a))
                assert np.float64(cvar(sample, a)).tobytes() == np.float64(want).tobytes(), a


class TestCvarViaMin:
    def test_plateau(self):
        value, iv = cvar_via_min(UNIFORM4, 0.5)
        assert value == pytest.approx(3.5, abs=1e-12)
        assert (iv.lower, iv.upper) == (2.0, 3.0)

    def test_constant(self):
        value, iv = cvar_via_min(make_sample([4.0, 4.0, 4.0]), 0.25)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert (iv.lower, iv.upper) == (4.0, 4.0)

    def test_top_atom(self):
        value, iv = cvar_via_min(make_sample([0.0, 1.0]), 0.75)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert (iv.lower, iv.upper) == (1.0, 1.0)


class TestSuperexpectation:
    def test_below_support(self):
        assert superexpectation(UNIFORM4, 0.0) == pytest.approx(2.5, abs=1e-12)

    def test_above_support(self):
        assert superexpectation(UNIFORM4, 9.0) == pytest.approx(9.0, abs=1e-12)

    def test_interior(self):
        assert superexpectation(UNIFORM4, 2.5) == pytest.approx(3.0, abs=1e-12)

    def test_dual_interior(self):
        value, interval = superexpectation_dual(UNIFORM4, 2.5)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert interval == (0.5, 0.5)

    def test_dual_on_atom(self):
        value, interval = superexpectation_dual(UNIFORM4, 2.0)
        assert value == pytest.approx(2.75, abs=1e-12)
        assert interval == (0.25, 0.5)

    def test_dual_constant(self):
        value, interval = superexpectation_dual(make_sample([3.0]), 3.0)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert interval == (0.0, 1.0)


class TestQuantileQuadrangle:
    def test_constant_zero(self):
        q = eval_quantile_quadrangle(make_sample([0.0, 0.0]), 0.4)
        assert q.risk == q.deviation == q.regret == q.error == 0.0

    def test_symmetric_two_point(self):
        q = eval_quantile_quadrangle(make_sample([-1.0, 1.0]), 0.5)
        assert q.error == pytest.approx(1.0, abs=1e-12)
        assert q.deviation == pytest.approx(1.0, abs=1e-12)

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            eval_quantile_quadrangle(UNIFORM4, 0.0)
        with pytest.raises(ValueError):
            eval_quantile_quadrangle(UNIFORM4, 1.0)

    def test_centerness(self, rng):
        for _ in range(50):
            s = random_sample(rng)
            a = float(rng.uniform(0.05, 0.95))
            q = eval_quantile_quadrangle(s, a)
            assert q.risk - q.deviation == pytest.approx(s.mean(), abs=1e-10)
            assert q.regret - q.error == pytest.approx(s.mean(), abs=1e-10)


class TestBiasedMeanQuadrangle:
    def test_constant(self):
        q = eval_biased_mean_quadrangle(make_sample([3.0, 3.0]), 1.0)
        assert q.deviation == pytest.approx(0.0, abs=1e-12)
        assert q.risk == pytest.approx(3.0, abs=1e-12)

    def test_two_point_with_bias(self):
        q = eval_biased_mean_quadrangle(make_sample([-1.0, 1.0]), 0.5)
        assert q.statistic == pytest.approx(0.5, abs=1e-12)
        assert q.error == pytest.approx(0.5, abs=1e-12)
        assert q.deviation == pytest.approx(0.25, abs=1e-12)
        assert q.risk == pytest.approx(0.25, abs=1e-12)
        assert q.regret == pytest.approx(0.5, abs=1e-12)

    def test_zero_bias_matches_l1_version(self, rng):
        for _ in range(100):
            s = random_sample(rng)
            a = eval_biased_mean_quadrangle(s, 0.0)
            b = eval_mean_l1_quadrangle(s)
            for field in ("risk", "deviation", "regret", "error", "statistic"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_centerness(self, rng):
        for _ in range(50):
            s = random_sample(rng)
            x = float(rng.uniform(-2, 2))
            q = eval_biased_mean_quadrangle(s, x)
            assert q.risk - q.deviation == pytest.approx(s.mean(), abs=1e-10)
            assert q.regret - q.error == pytest.approx(s.mean(), abs=1e-10)


class TestMeanL1Quadrangle:
    def test_two_point(self):
        q = eval_mean_l1_quadrangle(make_sample([0.0, 2.0]))
        assert q.deviation == pytest.approx(0.5, abs=1e-12)
        assert q.error == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        q = eval_mean_l1_quadrangle(make_sample([2.0]))
        assert q.deviation == 0.0
        assert q.error == pytest.approx(2.0, abs=1e-12)


class TestErrorProjection:
    def test_two_point(self):
        c, v = error_projection(make_sample([-1.0, 1.0]), 0.5)
        assert c == pytest.approx(0.5, abs=1e-12)
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_constant(self):
        c, v = error_projection(make_sample([4.0]), 0.0)
        assert c == pytest.approx(4.0, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        c, v = error_projection(UNIFORM4, 0.0)
        assert c == pytest.approx(2.5, abs=1e-12)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_matches_deviation_corner(self, rng):
        for _ in range(100):
            s = random_sample(rng)
            x = float(rng.uniform(-2, 2))
            c, v = error_projection(s, x)
            q = eval_biased_mean_quadrangle(s, x)
            assert c == pytest.approx(x + s.mean(), abs=1e-10)
            assert v == pytest.approx(q.deviation, abs=1e-10)


def _loop_error_projection(sample, x):
    """One direct O(n) error evaluation per candidate: the reference for error_projection."""
    b = BiasParam(float(x))
    center = b.x + sample.mean()
    candidates = np.concatenate((np.unique(sample.atoms), [center]))
    values = np.array([max(neg_part_mean(sample, c) - b.x_plus,
                           pos_part_mean(sample, c) - b.x_minus) for c in candidates])
    best = values.min()
    center_value = values[-1]
    tol = _TIE_TOL * max(1.0, abs(best))
    if center_value <= best + tol:
        return float(center), float(center_value)
    return float(candidates[int(values.argmin())]), float(best)


class TestErrorProjectionLoopReference:
    """Prefix-sum error_projection against the per-candidate loop, bit for bit."""

    BIASES = (-10.0, -1.5, -0.5, 0.0, 0.25, 1.5, 10.0)

    def _check(self, sample):
        for x in self.BIASES:
            assert error_projection(sample, x) == _loop_error_projection(sample, x), x

    def test_tied_grid_weighted(self, rng):
        for n in (2, 40, 500):
            atoms = rng.integers(-64, 64, n) / 1024.0
            self._check(make_sample(atoms, rng.uniform(0.05, 1.0, n)))

    def test_one_and_two_atoms(self):
        self._check(make_sample([3.0]))
        self._check(make_sample([-1.0, 2.0], [0.3, 0.7]))
        self._check(make_sample([0.5, 0.5, 0.5]))

    def test_one_sided_beyond_spread(self, rng):
        # |x| = 10 exceeds the spread, so the error is flat over a stretch of atoms.
        spread = np.abs(rng.standard_normal(60))
        self._check(make_sample(5.0 + spread, rng.uniform(0.05, 1.0, 60)))
        self._check(make_sample(-5.0 - spread))

    def test_random(self, rng):
        for _ in range(40):
            self._check(random_sample(rng, max_n=200))


class TestRelationIdentities:
    def test_constant_sample_zero_residuals(self):
        res = quadrangle_relation_check(make_sample([2.0, 2.0]), 0.7)
        assert np.max(res) == pytest.approx(0.0, abs=1e-12)

    def test_zero_bias_risk_identity(self):
        res = quadrangle_relation_check(UNIFORM4, 0.0)
        assert np.max(res) <= 1e-10
        q = eval_biased_mean_quadrangle(UNIFORM4, 0.0)
        assert q.risk == pytest.approx(3.0, abs=1e-12)

    def test_random(self, rng):
        for _ in range(100):
            s = random_sample(rng)
            x = float(rng.uniform(-2, 2))
            assert np.max(quadrangle_relation_check(s, x)) <= 1e-10


class TestSubregularity:
    def test_positive_error_short_circuits(self):
        lam, err = subregularity_probe(make_sample([-1.0, 1.0]), 0.0)
        assert lam == 1.0 and err > 0

    def test_flat_case_positive_bias(self):
        lam, err = subregularity_probe(make_sample([-1.0]), 2.0)
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_flat_case_negative_bias(self):
        lam, err = subregularity_probe(make_sample([1.0]), -2.0)
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert err > 0

    def test_rejects_zero_sample(self):
        with pytest.raises(ValueError):
            subregularity_probe(make_sample([0.0, 0.0]), 1.0)


class TestBiasParam:
    def test_parts(self):
        b = BiasParam(-1.5)
        assert b.x_plus == 0.0 and b.x_minus == 1.5
        assert b.x_plus - b.x_minus == b.x
        assert b.x_plus * b.x_minus == 0.0
