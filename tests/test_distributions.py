import math

import numpy as np
import pytest
from scipy import special, stats

from quadlab.distributions import (
    DesignSpec,
    EmpiricalSample,
    SkewNormalSpec,
    _merge_ties,
    _owens_t,
    _view,
    make_sample,
    sample_correlated_design,
    sample_skew_normal,
    skew_normal_cdf_at_zero,
)
from quadlab.functionals import (
    cvar,
    cvar_via_min,
    error_projection,
    quadrangle_relation_check,
    superexpectation_dual,
    var,
)


class TestMakeSample:
    def test_equal_weighting(self):
        s = make_sample([1, 2, 3])
        assert np.array_equal(s.atoms, [1.0, 2.0, 3.0])
        assert np.allclose(s.probabilities, [1 / 3] * 3)

    def test_point_mass(self):
        s = make_sample([5])
        assert s.atoms.tolist() == [5.0]
        assert s.probabilities.tolist() == [1.0]

    def test_weight_normalization(self):
        s = make_sample([0, 0, 1], [1, 1, 2])
        assert np.allclose(s.probabilities, [0.25, 0.25, 0.5])

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            s = make_sample(rng.standard_normal(n), rng.uniform(0, 1, n) + 1e-3)
            assert abs(s.probabilities.sum() - 1.0) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_sample([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            make_sample([1, 2], [1, -1])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            make_sample([1, 2], [0, 0])

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="values must be finite"):
                make_sample([1, bad])
            with pytest.raises(ValueError, match="values must be finite"):
                make_sample([1, bad], [1, 1])

    def test_checks_finiteness_once_per_array(self, rng, monkeypatch):
        """One finiteness pass over the values, and one over weights when given."""
        calls = []
        isfinite = np.isfinite

        def counting(array, *args, **kwargs):
            calls.append(np.shape(array))
            return isfinite(array, *args, **kwargs)

        values, weights = rng.standard_normal(40), rng.uniform(0.1, 1.0, 40)
        monkeypatch.setattr(np, "isfinite", counting)
        make_sample(values)
        assert calls == [(40,)]
        calls.clear()
        make_sample(values, weights)
        assert calls == [(40,), (40,)]

    def test_invariant_checked_on_type(self):
        with pytest.raises(ValueError):
            EmpiricalSample(np.array([1.0]), np.array([0.5]))

    def test_refuses_nan_probabilities(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalSample(np.array([1.0, 2.0]), np.array([np.nan, np.nan]))
        # finite weights whose sum overflows normalize to NaN
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="sum to 1"):
            make_sample([1.0, 2.0], [1e308, 1e308])


# Every functional that reads the cached sorted view.
VIEW_READERS = (
    lambda s: var(s, 0.3),
    lambda s: cvar(s, 0.3),
    lambda s: cvar_via_min(s, 0.3),
    lambda s: superexpectation_dual(s, 0.2),
    lambda s: quadrangle_relation_check(s, 0.2),
    lambda s: error_projection(s, 0.2),
)


class TestSampleContract:
    """Samples are immutable and sort themselves at most once."""

    def test_arrays_read_only(self):
        s = make_sample([3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            s.atoms[0] = 0.0
        with pytest.raises(ValueError):
            s.probabilities[0] = 1.0
        view = s.sorted_view
        assert len(list(view)) == len(view._fields) == 5  # the lazy grid and tail too
        for array in view:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_tail_sums_built_on_first_read(self, rng):
        """``var`` and ``cvar`` read the atoms and cdf alone; ``grid`` and ``tail`` wait."""
        s = make_sample(rng.standard_normal(50))
        var(s, 0.3), cvar(s, 0.3)
        view = s.sorted_view
        assert "grid" not in vars(view) and "tail" not in vars(view)
        cvar_via_min(s, 0.3)
        assert view.grid is s.sorted_view.grid and view.tail is s.sorted_view.tail

    def test_caller_arrays_detached(self, rng):
        atoms = rng.standard_normal(30)
        probs = np.full(30, 1.0 / 30)
        weights = rng.uniform(0.1, 1.0, 30)
        direct, made = EmpiricalSample(atoms, probs), make_sample(atoms, weights)
        before = [(s.mean(), var(s, 0.4), cvar(s, 0.4)) for s in (direct, made)]
        assert atoms.flags.writeable and probs.flags.writeable and weights.flags.writeable
        atoms[:5] = 100.0
        probs[:] = np.linspace(0.0, 2.0 / 30, 30)
        weights[0] = 50.0
        assert [(s.mean(), var(s, 0.4), cvar(s, 0.4)) for s in (direct, made)] == before

    def test_equality_is_identity(self, rng):
        atoms = rng.standard_normal(30)
        probs = np.full(30, 1.0 / 30)
        sample = EmpiricalSample(atoms, probs)
        assert sample == sample and not sample != sample
        assert sample != EmpiricalSample(atoms, probs)
        assert len({sample, sample, EmpiricalSample(atoms, probs)}) == 2

    def test_sorted_view_built_once(self, rng, monkeypatch):
        s = make_sample(rng.integers(0, 9, 50).astype(float))
        calls = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        for reader in VIEW_READERS + VIEW_READERS:
            reader(s)
        assert len(calls) == 1
        assert s.sorted_view is s.sorted_view

    def test_sorted_view_contents(self):
        view = make_sample([2.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4]).sorted_view
        assert view.atoms.tolist() == [1.0, 2.0, 3.0]
        assert np.allclose(view.probabilities, [0.2, 0.4, 0.4])
        assert np.allclose(view.cdf, [0.2, 0.6, 1.0]) and view.cdf[-1] == 1.0

    def test_upper_tail_sums_on_view(self, rng):
        atoms = np.round(rng.standard_normal(60) * 8) / 8
        s = make_sample(atoms, rng.uniform(0.1, 1.0, 60))
        view = s.sorted_view
        assert view.grid.tolist() == [0.0] + view.cdf.tolist()
        for j in range(view.atoms.size + 1):
            above = view.atoms[j:]
            assert view.tail[j] == pytest.approx(above @ view.probabilities[j:], abs=1e-15)
        assert view.tail[-1] == 0.0
        assert view.tail[0] == pytest.approx(s.mean(), abs=1e-14)
        assert s.sorted_view.tail is view.tail

    def test_cached_view_gives_identical_results(self, rng):
        atoms = np.round(rng.standard_normal(300) * 64) / 64
        weights = rng.uniform(0.05, 1.0, 300)
        warm = make_sample(atoms, weights)
        warm.sorted_view
        for reader in VIEW_READERS:
            assert repr(reader(warm)) == repr(reader(make_sample(atoms, weights)))

    @pytest.mark.parametrize("kind", ["distinct", "tied", "grid", "zero_probability"])
    def test_distinct_atoms_skip_the_merge_bit_for_bit(self, rng, kind):
        """Every view field equals the tie-merging path's, bytes and dtype included."""
        n = 8000  # quadrangle_eval's sample size
        atoms, weights = rng.standard_normal(n), rng.uniform(0.05, 1.0, n)
        if kind == "tied":
            atoms = rng.integers(0, 9, n) * 0.5
        elif kind == "grid":  # quadrangle_eval's draws: atoms on a 2**-10 grid
            atoms = np.round(atoms / 2.0 ** -10) * 2.0 ** -10
        elif kind == "zero_probability":  # a -0.0 weight too: the merge reads it 0.0
            weights[::7] = 0.0
            weights[3] = -0.0
        sample = make_sample(atoms, weights)
        order = np.argsort(sample.atoms, kind="stable")
        a, p = sample.atoms[order], sample.probabilities[order]
        distinct = np.concatenate(([True], a[1:] != a[:-1]))
        assert distinct.all() == (kind in ("distinct", "zero_probability"))
        merged = _view(*_merge_ties(a, p, distinct))
        for name, got, want in zip(merged._fields, sample.sorted_view, merged):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("weights", ["equal", "random", "signed_zeros"])
    def test_tie_merge_matches_add_at(self, rng, weights):
        """The merge sums each run in order onto 0.0, as ``np.add.at`` onto zeros does."""
        for n, values in ((2, 1), (9, 2), (500, 40), (500, 3), (8000, 9)):
            a = np.sort(rng.integers(0, values, n) * 0.5)
            p = np.full(n, 1.0 / n) if weights == "equal" else rng.uniform(0.0, 1.0, n)
            if weights == "signed_zeros":  # -0.0 alone, first in a run and after a 0.0
                p[::5] = -0.0
                p[1::11] = 0.0
            distinct = np.concatenate(([True], a[1:] != a[:-1]))
            want = np.zeros(int(distinct.sum()))
            np.add.at(want, np.cumsum(distinct) - 1, p)
            atoms, merged = _merge_ties(a, p, distinct)
            assert atoms.tolist() == np.unique(a).tolist()
            assert merged.dtype == want.dtype and merged.tobytes() == want.tobytes()
        if weights == "signed_zeros":
            lone = _merge_ties(np.array([1.0, 2.0]), np.array([-0.0, 1.0]),
                               np.array([True, True]))[1]
            assert np.signbit(lone).tolist() == [False, False]


class TestSkewNormal:
    def test_shape_zero_equals_normal_stream(self):
        # delta = 0 collapses the construction onto the second normal stream
        spec = SkewNormalSpec(0.0)
        out = sample_skew_normal(spec, 500, seed=42)
        ref = np.random.default_rng(42).standard_normal((500, 2))[:, 1]
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_standardization_monte_carlo(self):
        out = sample_skew_normal(SkewNormalSpec(10.0), 10 ** 6, seed=7)
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 1.0) < 0.01

    def test_fraction_below_zero_matches_cdf(self):
        out = sample_skew_normal(SkewNormalSpec(10.0), 10 ** 6, seed=7)
        assert abs((out <= 0).mean() - 0.572760) < 3e-3

    def test_deterministic_given_seed(self):
        a = sample_skew_normal(SkewNormalSpec(3.0), 1000, seed=11)
        b = sample_skew_normal(SkewNormalSpec(3.0), 1000, seed=11)
        assert np.array_equal(a, b)

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            sample_skew_normal(SkewNormalSpec(1.0), 0, seed=0)

    def test_delta_unchanged_where_square_is_finite(self):
        rng = np.random.default_rng(8)
        for a in (rng.standard_normal(2000) * 10.0 ** rng.uniform(-8.0, 153.0, 2000)).tolist():
            assert SkewNormalSpec(a).delta == a / math.sqrt(1.0 + a * a)

    @pytest.mark.parametrize("shape", [1e155, -1e155, 1e300, -1e300])
    def test_huge_shape_is_half_normal(self, shape):
        # a^2 overflows: delta must tend to sign(a), not collapse to 0
        assert SkewNormalSpec(shape).delta == math.copysign(1.0, shape)
        raw = sample_skew_normal(SkewNormalSpec(shape, standardized=False), 200, seed=5)
        u = np.random.default_rng(5).standard_normal((200, 2))
        assert np.array_equal(raw, math.copysign(1.0, shape) * np.abs(u[:, 0]))


class TestSkewNormalCdfAtZero:
    def test_symmetric_shape(self):
        assert abs(skew_normal_cdf_at_zero(0.0) - 0.5) < 1e-8

    def test_reference_value_at_ten(self):
        assert abs(skew_normal_cdf_at_zero(10.0) - 0.572760) < 1e-4

    def test_mirror_symmetry(self):
        assert abs(skew_normal_cdf_at_zero(-10.0) - (1 - 0.572760)) < 1e-4

    @pytest.mark.parametrize("shape", [1e155, -1e155, 1e300, -1e300])
    def test_huge_shape_matches_finite_square(self, shape):
        # 1e150 is the largest tested shape whose square is still finite
        reference = skew_normal_cdf_at_zero(math.copysign(1e150, shape))
        assert skew_normal_cdf_at_zero(shape) == pytest.approx(reference, abs=1e-12)
        assert reference == pytest.approx(0.5750625 if shape > 0 else 0.4249375, abs=1e-7)

    def test_against_library_cdf(self):
        # both sides of the |a| = 1 switch to the reflection, and both signs
        for a in (0.0, 1e-300, -1e-300, 0.5, 0.999, -0.999, 1.0, -1.0, 1.001, -1.001,
                  2.0, -4.0, 10.0, 50.0, -50.0, 1e150, -1e150):
            ref = stats.skewnorm.cdf(SkewNormalSpec(a).base_mean, a)
            assert abs(skew_normal_cdf_at_zero(a) - ref) < 1e-12, a

    def test_owens_t_against_library(self):
        hs = (0.0, 1e-8, 0.3, 0.8, 1.5, 3.0, 6.0, 9.0)
        shapes = (0.0, 1e-300, 0.01, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 1e3, 1e8, 1e300)
        for h in hs + tuple(-h for h in hs):
            for a in shapes + tuple(-a for a in shapes):
                assert _owens_t(h, a) == pytest.approx(special.owens_t(h, a), abs=1e-15), (h, a)


class TestCorrelatedDesign:
    def test_independent_columns(self):
        x = sample_correlated_design(DesignSpec(2, 0.0), 10 ** 5, seed=3)
        assert abs(np.corrcoef(x[:, 0], x[:, 1])[0, 1]) < 0.02

    def test_ar1_second_neighbor(self):
        x = sample_correlated_design(DesignSpec(3, 0.9), 10 ** 5, seed=3)
        assert abs(np.corrcoef(x[:, 0], x[:, 2])[0, 1] - 0.81) < 0.01

    def test_single_column(self):
        x = sample_correlated_design(DesignSpec(1, 0.5), 1000, seed=5)
        ref = np.random.default_rng(5).standard_normal((1000, 1))
        assert np.array_equal(x, ref)

    def test_cholesky_reproduces_covariance(self):
        for d in (2, 10, 100):
            spec = DesignSpec(d, 0.9)
            sigma = spec.covariance()
            chol = np.linalg.cholesky(sigma)
            assert np.max(np.abs(chol @ chol.T - sigma)) < 1e-10

    def test_rejects_unit_correlation(self):
        with pytest.raises(ValueError):
            DesignSpec(2, 1.0)

    def test_deterministic_given_seed(self):
        a = sample_correlated_design(DesignSpec(4, 0.3), 50, seed=9)
        b = sample_correlated_design(DesignSpec(4, 0.3), 50, seed=9)
        assert np.array_equal(a, b)
