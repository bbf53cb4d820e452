import itertools

import numpy as np
import pytest

from quadlab import regression, sparse
from quadlab.lp_core import solve_lp
from quadlab.lp_core.simplex import _Simplex
from quadlab.regression import (
    MAX_PINBALL_LEVEL,
    Dataset,
    Residuals,
    SeSubsetOracle,
    fit_biased_mean,
    fit_ols,
    fit_quantile,
    fit_se,
    induced_alpha,
    kb_error,
    residuals,
    se_lp_problem,
)

INTERCEPT_ONLY = Dataset(np.zeros((4, 0)), np.array([1.0, 2.0, 3.0, 4.0]))


def random_dataset(rng, max_n=120, max_d=5):
    n = int(rng.integers(5, max_n))
    d = int(rng.integers(0, max_d + 1))
    x = rng.standard_normal((n, d))
    y = (x @ rng.standard_normal(d) if d else 0.0) + rng.standard_normal(n)
    return Dataset(x, y)


class TestFitOls:
    def test_exact_line(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
        m = fit_ols(data)
        assert m.intercept == pytest.approx(1.0, abs=1e-10)
        assert m.coefficients[0] == pytest.approx(2.0, abs=1e-10)

    def test_intercept_only_is_mean(self):
        m = fit_ols(INTERCEPT_ONLY)
        assert m.intercept == pytest.approx(2.5, abs=1e-12)

    def test_two_point(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        m = fit_ols(data)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)
        assert m.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_normal_equation_residual(self, rng):
        data = random_dataset(rng, max_n=200)
        m = fit_ols(data)
        full = np.hstack((np.ones((data.n, 1)), data.design))
        beta = np.concatenate(([m.intercept], m.coefficients))
        resid = full.T @ (full @ beta) - full.T @ data.response
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(full.T @ data.response))

    def test_rank_deficiency_flagged(self):
        x = np.ones((10, 2))
        y = np.arange(10.0)
        m = fit_ols(Dataset(x, y))
        assert m.regularized


def _model_fields(model):
    return (np.float64(model.intercept).tobytes(), model.coefficients.tobytes(),
            model.regularized, np.float64(model.objective).tobytes(), model.equiv_alpha)


class TestDatasetCopies:
    """A data set holds read-only copies and fits OLS once, for every fitter."""

    FITS = (lambda d: fit_quantile(d, 0.3), fit_ols, fit_se, lambda d: fit_biased_mean(d, 0.2))

    def test_caller_writes_reach_no_fit(self, rng):
        x, y = rng.standard_normal((40, 2)), rng.standard_normal(40)
        data = Dataset(x, y)
        before = [_model_fields(fit(data)) for fit in self.FITS]
        x[:] = 0.0
        y[:] = 1.0
        assert [_model_fields(fit(data)) for fit in self.FITS] == before
        fresh = Dataset(x, y)
        assert _model_fields(fit_ols(fresh)) != before[1]

    def test_arrays_are_read_only(self, rng):
        data = random_dataset(rng)
        beta, _ = data.ols_coefficients
        for array in (data.design, data.response, beta):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
        model = fit_ols(data)
        model.coefficients[...] = 0.0  # a model owns its coefficients
        assert not np.shares_memory(model.coefficients, beta)

    def test_equality_is_identity(self, rng):
        x, y = rng.standard_normal((40, 2)), rng.standard_normal(40)
        data = Dataset(x, y)
        assert data == data and not data != data
        assert data != Dataset(x, y)
        assert len({data, data, Dataset(x, y)}) == 2

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)])
    def test_fit_order_changes_nothing(self, rng, order):
        for _ in range(4):
            data = random_dataset(rng)
            shared = {k: _model_fields(self.FITS[k](data)) for k in order}
            for k in order:
                fresh = Dataset(np.array(data.design), np.array(data.response))
                assert shared[k] == _model_fields(self.FITS[k](fresh))

    def test_ols_computed_once(self, rng, monkeypatch):
        data = random_dataset(rng)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda g: calls.append(1) or cholesky(g))
        for fit in self.FITS:
            fit(data)
        assert len(calls) == 1


class TestFitQuantile:
    def test_intercept_only_median(self):
        m = fit_quantile(INTERCEPT_ONLY, 0.5)
        assert 2.0 - 1e-9 <= m.intercept <= 3.0 + 1e-9
        assert m.objective == pytest.approx(1.0, abs=1e-9)

    def test_all_equal_response(self):
        data = Dataset(np.zeros((5, 0)), np.full(5, 3.3))
        m = fit_quantile(data, 0.7)
        assert m.intercept == pytest.approx(3.3, abs=1e-9)
        assert m.objective == pytest.approx(0.0, abs=1e-12)

    def test_perfect_fit(self, rng):
        x = rng.standard_normal((30, 2))
        y = 1.5 + x @ np.array([2.0, -1.0])
        m = fit_quantile(Dataset(x, y), 0.3)
        assert m.objective == pytest.approx(0.0, abs=1e-9)
        assert m.intercept == pytest.approx(1.5, abs=1e-7)

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            fit_quantile(INTERCEPT_ONLY, 1.0)

    def test_refuses_levels_too_close_to_one(self):
        # an interpolating fit (n = 3, d = 6) on which a level an ulp below 1
        # failed the pinball certification with an LpError
        rng = np.random.default_rng(50)
        data = Dataset(rng.standard_normal((3, 6)), rng.standard_normal(3))
        assert MAX_PINBALL_LEVEL == 0.999999
        for alpha in (1 - 2**-53, 1 - 2**-22, np.nextafter(MAX_PINBALL_LEVEL, 1.0)):
            with pytest.raises(ValueError, match=r"alpha must be at most 0\.999999"):
                fit_quantile(data, alpha)
        assert fit_quantile(data, MAX_PINBALL_LEVEL).objective == pytest.approx(0.0, abs=1e-9)


class TestFitBiasedMean:
    def test_intercept_only_shifted_mean(self):
        for x in (0.7, -0.4, 0.0):
            m = fit_biased_mean(INTERCEPT_ONLY, x)
            assert m.intercept == pytest.approx(2.5 + x, abs=1e-9)

    def test_perfect_fit_zero_bias(self, rng):
        x = rng.standard_normal((25, 2))
        y = x @ np.array([1.0, 2.0]) - 0.5
        m = fit_biased_mean(Dataset(x, y), 0.0)
        assert m.objective == pytest.approx(0.0, abs=1e-9)

    def test_residual_mean_is_minus_x(self, rng):
        for _ in range(10):
            data = random_dataset(rng)
            x = float(rng.uniform(-1, 1))
            m = fit_biased_mean(data, x)
            z = residuals(m, data).z
            assert np.mean(z) == pytest.approx(-x, abs=1e-7)

    def test_equiv_alpha_is_exact_quantile_level(self, rng):
        fixed = np.random.default_rng(50)
        # an interpolating fit whose multipliers all sit at their lower end,
        # basic: at x = 0 both 0.5 - sum(u) and the share of their unsnapped
        # values round to 1 - 2**-53, where fit_quantile fails
        interpolating = Dataset(fixed.standard_normal((3, 6)), fixed.standard_normal(3))
        x = fixed.standard_normal((40, 3))
        y = x @ np.array([1.0, -1.0, 0.5]) + fixed.standard_normal(40)
        constant_column, duplicated_column = x.copy(), x.copy()
        constant_column[:, 1] = 2.0
        duplicated_column[:, 2] = x[:, 0]
        degenerate = (
            Dataset(np.zeros((1, 0)), np.array([0.7])),  # d = 0, one observation
            Dataset(np.zeros((9, 0)), fixed.standard_normal(9)),  # d = 0
            interpolating,
            Dataset(x, np.full(40, 1.5)),  # a constant response
            Dataset(constant_column, y),
            Dataset(duplicated_column, y),
            Dataset(np.repeat(x[:8], 5, axis=0), np.repeat(y[:8], 5)),  # tied rows
        )
        cases = [(data, bias) for data in degenerate for bias in (0.0, 0.01, 0.3, -2.0)]
        cases += [(random_dataset(rng, max_n=150), float(rng.uniform(-0.2, 0.2)))
                  for _ in range(8)]
        for data, bias in cases:
            m = fit_biased_mean(data, bias)
            z = residuals(m, data).z
            lo, hi = induced_alpha(residuals(m, data))
            assert lo - 1e-9 <= m.equiv_alpha <= hi + 1e-9, (data.n, data.d, bias)
            if 0.0 < m.equiv_alpha < 1.0:
                qr = fit_quantile(data, m.equiv_alpha)
                assert kb_error(z, m.equiv_alpha) == pytest.approx(qr.objective, rel=1e-9)


class TestFitSe:
    def test_intercept_only(self):
        m = fit_se(INTERCEPT_ONLY)
        assert m.intercept == pytest.approx(2.5, abs=1e-9)
        assert m.objective == pytest.approx(0.5, abs=1e-9)

    def test_zero_response(self):
        data = Dataset(np.zeros((6, 0)), np.zeros(6))
        m = fit_se(data)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)
        assert m.objective == pytest.approx(0.0, abs=1e-12)

    def test_matches_biased_mean_at_zero(self, rng):
        data = random_dataset(rng)
        a = fit_se(data)
        b = fit_biased_mean(data, 0.0)
        assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_objective_is_half_mean_abs_residual(self, rng):
        for _ in range(10):
            data = random_dataset(rng)
            m = fit_se(data)
            z = residuals(m, data).z
            assert m.objective == pytest.approx(0.5 * np.mean(np.abs(z)), abs=1e-9)

    def test_tracks_ols_on_symmetric_noise(self, rng):
        x = rng.standard_normal((2000, 1))
        y = 1.0 + 2.0 * x[:, 0] + rng.standard_normal(2000)
        data = Dataset(x, y)
        se = fit_se(data)
        ols = fit_ols(data)
        true = np.array([1.0, 2.0])
        d_se = np.linalg.norm(np.concatenate(([se.intercept], se.coefficients)) - true)
        d_ols = np.linalg.norm(np.concatenate(([ols.intercept], ols.coefficients)) - true)
        assert d_se <= 2.0 * max(d_ols, 0.02)

    def test_scale_equivariance(self, rng):
        data = random_dataset(rng)
        lam = 3.5
        scaled = Dataset(data.design, lam * data.response)
        a = fit_se(data)
        b = fit_se(scaled)
        assert b.objective == pytest.approx(lam * a.objective, rel=1e-8)
        assert b.intercept == pytest.approx(lam * a.intercept, abs=1e-6 * max(1, abs(a.intercept)))

    def test_stated_lp_form_agrees(self, rng):
        for _ in range(5):
            data = random_dataset(rng, max_n=60)
            lp, _ = se_lp_problem(data)
            ref = solve_lp(lp)
            m = fit_se(data)
            assert ref.status == "optimal"
            assert m.objective == pytest.approx(ref.objective, abs=1e-9)


class TestResidualsAndAlpha:
    def test_zero_model_zero_data(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3))
        from quadlab.regression import LinearModel
        z = residuals(LinearModel(0.0, np.zeros(1)), data)
        assert np.array_equal(z.z, np.zeros(3))

    def test_intercept_only_residual(self):
        data = Dataset(np.zeros((1, 0)), np.array([2.0]))
        from quadlab.regression import LinearModel
        z = residuals(LinearModel(1.0, np.zeros(0)), data)
        assert z.z.tolist() == [1.0]

    def test_counting(self):
        assert induced_alpha(Residuals(np.array([-1.0, -1.0, 1.0]))) == (2 / 3, 2 / 3)
        assert induced_alpha(Residuals(np.array([-2.0, -1.0, 0.0, 1.0]))) == (0.5, 0.75)
        assert induced_alpha(Residuals(np.array([3.0, 1.0]))) == (0.0, 0.0)


class TestSeSubsetOracle:
    def test_root_is_the_fit_se_solve(self, rng):
        for _ in range(5):
            data = random_dataset(rng, max_d=6)
            if data.d == 0:
                continue
            columns = tuple(range(data.d))
            bound, root = SeSubsetOracle(data).relax((), columns, None)
            fit = fit_se(data)
            assert np.array_equal(SeSubsetOracle(data).branch_values((), columns, root),
                                  fit.coefficients)
            assert bound == pytest.approx(fit.objective, abs=1e-12)

    def test_warm_subsets_match_cold_refits(self, rng):
        x = rng.standard_normal((60, 5))
        x[:, 3] = x[:, 0]
        data = Dataset(x, x @ np.array([1.0, 0.0, -2.0, 0.0, 0.5]) + rng.standard_normal(60))
        oracle = SeSubsetOracle(data)
        _, root = oracle.relax((), tuple(range(5)), None)
        for size in (1, 2, 3, 4):
            # the exhaustive oracle's stacked values, in combinations order
            stacked = sparse._se_objectives(data, size)
            for support, value in zip(itertools.combinations(range(5), size), stacked):
                bound, node = oracle.relax(support[:1], support[1:], root)
                refit = fit_se(Dataset(x[:, list(support)], data.response))
                assert oracle.objective(support) == refit.objective
                assert bound == pytest.approx(refit.objective, abs=1e-10)
                assert value == pytest.approx(refit.objective, abs=1e-10)
                coeffs = oracle.branch_values((), support, node)
                z = data.response - x[:, list(support)] @ coeffs
                z -= z.mean()
                assert 0.5 * np.mean(np.abs(z)) == pytest.approx(refit.objective, abs=1e-10)

    def test_own_columns_reuse_the_node(self, rng, monkeypatch):
        x = rng.standard_normal((30, 4))
        oracle = SeSubsetOracle(Dataset(x, x[:, 0] + rng.standard_normal(30)))
        bound, node = oracle.relax((), (2, 0, 1), None)
        monkeypatch.setattr(regression, "solve_lp", None)  # a reused node solves nothing
        assert oracle.relax((0,), (1, 2), node) == (bound, node)
        assert oracle.relax((1, 2, 0), (), node)[1] is node


class TestDualStart:
    """The regression duals start from observations read off the OLS fit.

    The pinball dual's basis holds d + 1 of them, the part-balancing dual's d.
    """

    @staticmethod
    def _duals(data):
        n = data.n
        return {"quantile": regression._dual_problem(data, -1.0 / n, 3.0 / n, 0.75),
                "balance": regression._se_problem(data, 0.01)}

    def test_few_long_steps_at_ten_thousand(self, rng):
        x = rng.standard_normal(10_000)
        data = Dataset(x[:, None], x + rng.standard_normal(10_000) ** 2)
        z = residuals(fit_ols(data), data).z
        for kind, (problem, warm) in self._duals(data).items():
            basis, _ = warm
            assert np.all(basis < data.n)  # observation columns only
            sol = regression._solve_dual(problem, warm, data.n)
            assert sol.warm_used and sol.phase_iterations[1] == 0
            assert sol.phase_iterations[0] <= 10 and sol.iterations <= 12, kind
            assert 0 < sol.bound_flips < 500, kind
            threshold = np.quantile(z, 0.75) if kind == "quantile" else z.mean() + 0.01
            gap = np.abs(z - threshold)
            assert np.all(gap[basis] <= np.sort(gap)[8 * 2 - 1])

    def test_split_threshold_is_numpy_quantile(self, rng):
        """The quantile split threshold equals ``np.quantile`` bit for bit."""
        levels = [0.0, 1e-300, 1e-12, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-12,
                  float(np.nextafter(1.0, 0.0)), 1.0]

        def same(z, level):
            got = regression._split_threshold(z, level)
            assert np.float64(got).tobytes() == np.float64(np.quantile(z, level)).tobytes(), \
                (z, level)

        for _ in range(2000):
            n = int(rng.integers(1, 40)) if rng.random() < 0.9 else int(rng.integers(40, 3000))
            kind = rng.integers(3)
            if kind == 0:
                z = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
            elif kind == 1:  # ties
                z = rng.integers(-3, 4, n) * 0.1
            else:
                z = np.full(n, rng.standard_normal())
            same(z, float(rng.choice(levels)) if rng.random() < 0.5 else float(rng.random()))
        # residuals as ``_dual_problem`` reads them off the OLS fit
        x = rng.standard_normal((50, 2))
        for data in (Dataset(np.array([[0.3]]), np.array([1.0])),
                     Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 5.0])),
                     Dataset(x, np.full(50, 2.0)),  # a constant response
                     Dataset(np.repeat(x[:5], 10, axis=0), np.repeat(rng.integers(0, 3, 5), 10)
                             * 1.0)):  # tied residuals
            z = residuals(fit_ols(data), data).z
            for level in levels + rng.random(20).tolist():
                same(z, level)
        # the size of the largest pinball duals the benchmark fits; the
        # partition leaves the upper neighbour next to the lower one in all
        # but about one in 200 draws, so many levels are tried
        for z in (rng.standard_normal(10_000), rng.integers(-3, 4, 10_000) * 0.1):
            for level in levels + rng.random(200).tolist():
                same(z, level)

    def test_dependent_rows_keep_their_slack(self, rng):
        x = rng.standard_normal((80, 4))
        x[:, 2] = x[:, 0]   # duplicated column
        x[:, 3] = 1.5       # constant column, parallel to the intercept
        data = Dataset(x, x[:, 0] - x[:, 1] + rng.standard_normal(80))
        # one slack per group of dependent rows: in the pinball dual the
        # intercept's row 0 and the constant column's row 4, and the
        # duplicated columns' rows 1 and 3; in the centred part-balancing
        # dual the constant column's all-zero row 3, and the duplicated
        # columns' rows 0 and 2
        groups = {"quantile": ({0, 4}, {1, 3}), "balance": ({3}, {0, 2})}
        for kind, (problem, warm) in self._duals(data).items():
            basis, _ = warm
            slacks = set((basis[basis >= problem.num_vars] - problem.num_vars).tolist())
            assert len(slacks) == 2
            assert all(len(slacks & group) == 1 for group in groups[kind])
            assert _Simplex(problem).warm_start(*warm)
            sol = regression._solve_dual(problem, warm, data.n)
            assert sol.warm_used
        assert fit_se(data).objective == pytest.approx(
            fit_se(Dataset(x[:, :2], data.response)).objective, abs=1e-10)

    def test_subset_children_keep_their_pivots(self, rng, monkeypatch):
        # children warm-start from a primal feasible parent basis, so the
        # dual phase never runs for them
        x = rng.standard_normal((120, 5))
        data = Dataset(x, x @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + rng.standard_normal(120))
        oracle = SeSubsetOracle(data)
        _, root = oracle.relax((), tuple(range(5)), None)
        supports = [s for size in (1, 2, 3, 4) for s in itertools.combinations(range(5), size)]
        counts = []
        for skip in (False, True):
            if skip:
                monkeypatch.setattr(_Simplex, "dual_phase", lambda self, limit: "skipped")
            nodes = [oracle._node(support, root)[2] for support in supports]
            counts.append([(sol.iterations, sol.basis.tolist()) for sol in nodes])
            assert all(sol.phase_iterations[0] == 0 for sol in nodes)
        assert counts[0] == counts[1]
