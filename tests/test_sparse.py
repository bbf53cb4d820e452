import heapq
import itertools

import numpy as np
import pytest

from quadlab import sparse
from quadlab.distributions import DesignSpec, sample_correlated_design
from quadlab.lp_core import LpError, stacked
from quadlab.regression import Dataset, LinearModel, fit_ols, fit_se
from quadlab.sparse import (
    SparseProblem,
    _GramSolver,
    _mse_objectives,
    _se_objectives,
    _sparse_model,
    brute_force_subset,
    fit_sparse_mse,
    fit_sparse_se,
    fit_sparse_se_milp,
    support_accuracy,
)


def planted_instance(rng, n=60, d=8, k=2, rho=0.0, noise=0.0):
    x = sample_correlated_design(DesignSpec(d, rho), n, int(rng.integers(1 << 30)))
    support = rng.choice(d, size=k, replace=False)
    coeffs = np.zeros(d)
    coeffs[support] = rng.choice([-1.0, 1.0], size=k)
    y = x @ coeffs + noise * rng.standard_normal(n)
    return Dataset(x, y), coeffs


class TestExactRecovery:
    def test_single_column_response(self, rng):
        x = rng.standard_normal((30, 3))
        data = Dataset(x, x[:, 1].copy())
        for fitter, kind in ((fit_sparse_se, "se"), (fit_sparse_se_milp, "se"),
                             (fit_sparse_mse, "mse")):
            sol = fitter(SparseProblem(data, k=1, error_kind=kind))
            assert sol.support == (1,)
            assert sol.objective == pytest.approx(0.0, abs=1e-10)

    def test_full_cardinality_equals_unrestricted(self, rng):
        data, _ = planted_instance(rng, d=6, k=2, noise=0.3)
        for fitter in (fit_sparse_se, fit_sparse_se_milp):
            se_sol = fitter(SparseProblem(data, k=6, error_kind="se"))
            assert se_sol.objective == pytest.approx(fit_se(data).objective, abs=1e-8)
        mse_sol = fit_sparse_mse(SparseProblem(data, k=6, error_kind="mse"))
        assert mse_sol.objective == pytest.approx(fit_ols(data).objective, abs=1e-10)

    def test_zero_noise_identifiability(self, rng):
        for kind, fitter in (("se", fit_sparse_se), ("mse", fit_sparse_mse)):
            data, coeffs = planted_instance(rng, n=40, d=7, k=3, noise=0.0)
            sol = fitter(SparseProblem(data, k=3, error_kind=kind))
            assert sol.objective == pytest.approx(0.0, abs=1e-8)
            assert support_accuracy(sol.model, coeffs, 3).accuracy == 1.0

    def test_orthogonal_design_max_correlation(self, rng):
        n, d = 400, 5
        x = rng.standard_normal((n, d))
        q, _ = np.linalg.qr(x)
        x = q * np.sqrt(n)
        y = x @ np.array([0.0, 0.0, 2.0, 0.0, 0.0]) + 0.1 * rng.standard_normal(n)
        data = Dataset(x, y)
        sol = fit_sparse_mse(SparseProblem(data, k=1, error_kind="mse"))
        corr = [abs(np.corrcoef(x[:, j], y)[0, 1]) for j in range(d)]
        assert sol.support == (int(np.argmax(corr)),)


class TestOracle:
    def test_guard(self, rng):
        data, _ = planted_instance(rng, d=8, k=2)
        with pytest.raises(ValueError):
            brute_force_subset(Dataset(np.zeros((5, 60)), np.zeros(5)), 30, "mse")

    def test_oracle_dominates_solvers(self, rng):
        for _ in range(4):
            data, _ = planted_instance(rng, d=8, k=2, rho=0.5, noise=1.0)
            for kind, fitter in (("se", fit_sparse_se), ("se", fit_sparse_se_milp),
                                 ("mse", fit_sparse_mse)):
                oracle = brute_force_subset(data, 2, kind)
                sol = fitter(SparseProblem(data, k=2, error_kind=kind))
                assert oracle.objective <= sol.objective + 1e-8
                assert sol.objective == pytest.approx(oracle.objective, abs=1e-8)

    def test_monotone_in_k(self, rng):
        data, _ = planted_instance(rng, d=6, k=3, rho=0.3, noise=0.8)
        for kind in ("se", "mse"):
            values = [brute_force_subset(data, k, kind).objective for k in range(1, 7)]
            assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    def test_exhaustive_gap_zero(self, rng):
        data, _ = planted_instance(rng, d=5, k=2)
        sol = brute_force_subset(data, 2, "mse")
        assert sol.gap == 0.0
        assert sol.bound == sol.objective


class TestSolverContracts:
    def test_bound_below_incumbent(self, rng):
        data, _ = planted_instance(rng, d=10, k=3, rho=0.6, noise=1.0)
        for kind, fitter in (("se", fit_sparse_se), ("se", fit_sparse_se_milp),
                             ("mse", fit_sparse_mse)):
            sol = fitter(SparseProblem(data, k=3, error_kind=kind))
            assert sol.bound <= sol.objective + 1e-9
            assert sol.gap >= 0.0

    def test_off_support_coefficients_exact_zero(self, rng):
        data, _ = planted_instance(rng, d=9, k=2, noise=0.5)
        for fitter in (fit_sparse_se, fit_sparse_se_milp):
            sol = fitter(SparseProblem(data, k=2, error_kind="se"))
            off = [j for j in range(9) if j not in sol.support]
            assert all(sol.model.coefficients[j] == 0.0 for j in off)
            assert len(sol.support) <= 2

    def test_node_budget_returns_feasible(self, rng):
        data, _ = planted_instance(rng, d=12, k=3, rho=0.8, noise=1.0)
        for fitter in (fit_sparse_se, fit_sparse_se_milp):
            sol = fitter(SparseProblem(data, k=3, error_kind="se", max_nodes=1))
            assert sol.status in ("feasible", "optimal", "time_limit")
            assert sol.objective is not None

    def test_error_kind_checked(self, rng):
        data, _ = planted_instance(rng)
        with pytest.raises(ValueError):
            fit_sparse_se(SparseProblem(data, k=1, error_kind="mse"))
        with pytest.raises(ValueError):
            fit_sparse_se_milp(SparseProblem(data, k=1, error_kind="mse"))
        with pytest.raises(ValueError):
            fit_sparse_mse(SparseProblem(data, k=1, error_kind="se"))
        with pytest.raises(ValueError, match="fit_sparse_se_milp"):
            fit_sparse_se(SparseProblem(data, k=1, error_kind="se", big_m=10.0))

    def test_explicit_big_m_small_triggers_escalation_flag(self, rng):
        x = rng.standard_normal((40, 3))
        y = 5.0 * x[:, 0] + 0.01 * rng.standard_normal(40)
        data = Dataset(x, y)
        sol = fit_sparse_se_milp(SparseProblem(data, k=1, error_kind="se", big_m=1.0))
        assert sol.big_m_active
        assert sol.support == (0,)
        assert sol.model.coefficients[0] == pytest.approx(5.0, abs=1e-2)


class TestAccuracy:
    def test_perfect(self):
        model = LinearModel(0.0, np.array([1.0, 0.0, -1.0]))
        true = np.array([2.0, 0.0, -3.0])
        assert support_accuracy(model, true, 2).accuracy == 1.0

    def test_disjoint(self):
        model = LinearModel(0.0, np.array([0.0, 1.0, 0.0]))
        true = np.array([1.0, 0.0, 1.0])
        assert support_accuracy(model, true, 2).accuracy == 0.0

    def test_partial(self):
        model = LinearModel(0.0, np.array([1.0, 1.0, 0.0]))
        true = np.array([1.0, 0.0, 1.0])
        report = support_accuracy(model, true, 2)
        assert report.accuracy == pytest.approx(0.5)

    def test_threshold(self):
        model = LinearModel(0.0, np.array([1e-12, 1.0]))
        true = np.array([1.0, 1.0])
        assert support_accuracy(model, true, 2).accuracy == pytest.approx(0.5)


def _loop_greedy_mse(data, k):
    """The squared-error greedy seed as it stood before the shared search loop."""
    chosen, remaining = [], list(range(data.d))
    solver = _GramSolver(data)
    while len(chosen) < k and remaining:
        best_j, best_obj = None, np.inf
        for j in remaining:
            obj = solver.objective(chosen + [j])
            if obj < best_obj - 1e-15:
                best_j, best_obj = j, obj
        chosen.append(best_j)
        remaining.remove(best_j)
    return tuple(sorted(chosen))


def _loop_fit_sparse_mse(problem):
    """``fit_sparse_mse`` as a bespoke loop, the reference for the shared search."""
    data, k = problem.data, problem.k
    solver = _GramSolver(data)
    incumbent_support = _loop_greedy_mse(data, k)
    incumbent_obj = solver.objective(incumbent_support)

    counter = 0
    root_candidates = tuple(range(data.d))
    root_bound = solver.objective(root_candidates)
    heap = [(root_bound, 0, (), root_candidates)]
    nodes = 0
    best_bound = root_bound
    status = None
    while heap:
        lb = min(heap[0][0], incumbent_obj)
        best_bound = max(best_bound, lb)
        if abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj)) <= problem.gap_tol:
            status = "optimal"
            break
        if problem.max_nodes is not None and nodes >= problem.max_nodes:
            status = "feasible"
            break
        bound, _, included, free = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-12:
            continue
        nodes += 1
        if len(included) == k or len(included) + len(free) <= k:
            leaf = tuple(sorted(included if len(included) == k else included + free))
            obj = solver.objective(leaf)
            if obj < incumbent_obj - 1e-15:
                incumbent_support, incumbent_obj = leaf, obj
            continue
        beta = solver.coefficients(included + free)
        free_betas = beta[1 + len(included):]
        branch_pos = int(np.argmax(np.abs(free_betas)))
        j = free[branch_pos]
        rest = free[:branch_pos] + free[branch_pos + 1:]
        for child_in, child_free in (((*included, j), rest), (included, rest)):
            if len(child_in) + len(child_free) < k:
                continue
            if len(child_in) == k:
                obj = solver.objective(tuple(sorted(child_in)))
                if obj < incumbent_obj - 1e-15:
                    incumbent_support, incumbent_obj = tuple(sorted(child_in)), obj
                continue
            child_bound = solver.objective(child_in + child_free)
            if child_bound >= incumbent_obj - 1e-12:
                continue
            counter += 1
            heapq.heappush(heap, (child_bound, counter, child_in, child_free))
    if status is None:
        best_bound = incumbent_obj
        status = "optimal"
    best_bound = min(best_bound, incumbent_obj)

    model, support, objective = _sparse_model(data, incumbent_support, "mse")
    bound = min(best_bound, objective)
    gap = abs(objective - bound) / max(1.0, abs(objective))
    return model, support, objective, bound, gap, status, nodes


def _mse_cases():
    """40 (d, rho, k, max_nodes) cases: 36 drawn, plus the k = 1 and k = d ends."""
    rng = np.random.default_rng(404)
    cases = [(int(d), float(rng.choice([0.0, 0.6, 0.9])), int(rng.integers(1, d + 1)),
              [1, None][int(rng.integers(2))]) for d in rng.integers(6, 13, size=36)]
    return cases + [(6, 0.9, 6, None), (12, 0.0, 1, None), (12, 0.6, 12, 1), (7, 0.6, 1, 1)]


class TestSharedSearch:
    def test_mse_bit_identical_to_loop(self):
        rng = np.random.default_rng(4041)
        cases = _mse_cases()
        assert len(cases) == 40
        for d, rho, k, max_nodes in cases:
            data, _ = planted_instance(rng, n=50, d=d, k=min(k, 3), rho=rho, noise=1.0)
            problem = SparseProblem(data, k=k, error_kind="mse", max_nodes=max_nodes)
            sol = fit_sparse_mse(problem)
            model, support, objective, bound, gap, status, nodes = _loop_fit_sparse_mse(problem)
            assert (sol.support, sol.objective, sol.bound, sol.gap, sol.status, sol.nodes) == \
                (support, objective, bound, gap, status, nodes)
            assert sol.model.intercept == model.intercept
            assert np.array_equal(sol.model.coefficients, model.coefficients)

    @staticmethod
    def _adversarial(rng):
        """(name, data, k) instances with ties, degeneracy and exact fits."""
        x = rng.standard_normal((40, 6))
        x[:, 4] = x[:, 1]
        yield "duplicated columns", Dataset(x, x[:, 1] - 0.5 * x[:, 3]
                                            + 0.3 * rng.standard_normal(40)), 2
        data, _ = planted_instance(rng, n=40, d=7, k=3, rho=0.6, noise=0.0)
        yield "zero noise", data, 3
        x = rng.standard_normal((40, 6))
        x[:, 2] = 1.7
        yield "constant column", Dataset(x, x[:, 0] + 0.5 * rng.standard_normal(40)), 2
        data, _ = planted_instance(rng, n=40, d=8, k=2, rho=0.9, noise=1.0)
        yield "k = 1", data, 1
        yield "k = d", data, 8
        data, _ = planted_instance(rng, n=30, d=5, k=2, rho=0.0, noise=0.0)
        yield "zero noise, k = d", data, 5

    def test_se_search_matches_milp_and_oracle(self, rng):
        for name, data, k in self._adversarial(rng):
            problem = SparseProblem(data, k=k, error_kind="se")
            search = fit_sparse_se(problem)
            milp = fit_sparse_se_milp(problem)
            oracle = brute_force_subset(data, k, "se")
            assert search.status == "optimal", name
            assert search.objective == pytest.approx(oracle.objective, abs=1e-8), name
            assert milp.objective == pytest.approx(oracle.objective, abs=1e-8), name
            assert search.bound <= search.objective + 1e-9, name
            assert len(search.support) <= k, name

    def test_se_node_budget_keeps_incumbent(self, rng):
        for name, data, k in self._adversarial(rng):
            sol = fit_sparse_se(SparseProblem(data, k=k, error_kind="se", max_nodes=1))
            oracle = brute_force_subset(data, k, "se")
            assert sol.status in ("feasible", "optimal"), name
            assert sol.nodes <= 1, name
            assert len(sol.support) <= k, name
            assert sol.objective >= oracle.objective - 1e-8, name
            assert sol.bound <= sol.objective + 1e-9, name
            z = data.response - sol.model.predict(data.design)
            assert sol.objective == pytest.approx(
                max(np.mean(np.maximum(-z, 0.0)), np.mean(np.maximum(z, 0.0))), abs=1e-12)


def _recovery_replication(rep_seed, d=8, n=100, rho=0.9, k=3):
    """The planted-support generator of the sparse-recovery experiment."""
    s_x, s_c, s_eps = np.random.SeedSequence(rep_seed).spawn(3)
    design = sample_correlated_design(DesignSpec(d, rho), n, s_x)
    rng_c = np.random.default_rng(s_c)
    block = d // k
    support = np.array([b * block + rng_c.integers(block) for b in range(k)])
    truth = np.zeros(d)
    truth[support] = rng_c.choice([-1.0, 1.0], size=k)
    return Dataset(design, design @ truth + np.random.default_rng(s_eps).standard_normal(n))


def _oracle_instances(rng):
    yield from TestSharedSearch._adversarial(rng)
    for seed in range(3):
        yield f"recovery replication {seed}", _recovery_replication(7100 + seed), 3


class TestStackedOracle:
    def test_se_values_match_per_subset_refits(self, rng):
        for name, data, k in _oracle_instances(rng):
            values = _se_objectives(data, k)
            combos = list(itertools.combinations(range(data.d), k))
            refits = np.array([_sparse_model(data, combo, "se")[2] for combo in combos])
            assert values.shape == (len(combos),), name
            assert np.max(np.abs(values - refits)) <= 1e-12, name
            sol = brute_force_subset(data, k, "se")
            assert sol.nodes == len(combos), name
            assert sol.objective == pytest.approx(values.min(), abs=1e-12), name

    def test_chunks_give_the_same_values(self, rng, monkeypatch):
        for name, data, k in _oracle_instances(rng):
            whole = (_se_objectives(data, k), _mse_objectives(data, k))
            winners = [brute_force_subset(data, k, kind) for kind in ("se", "mse")]
            for budget in (1, 7 * 8 * data.n * (k + 8)):
                monkeypatch.setattr(sparse, "STACK_BYTES", budget)
                assert np.array_equal(_se_objectives(data, k), whole[0]), name
                assert np.array_equal(_mse_objectives(data, k), whole[1]), name
                for kind, sol in zip(("se", "mse"), winners):
                    again = brute_force_subset(data, k, kind)
                    assert (again.support, again.objective) == (sol.support, sol.objective)
            monkeypatch.undo()

    def test_mse_values_equal_gram_loop(self, rng):
        x = rng.standard_normal((40, 7))
        x[:, 4] = x[:, 1]
        singular = x.copy()
        singular[:, 2] = 0.0  # an exactly singular Gram block in every chunk holding column 2
        for design in (x, singular):
            data = Dataset(design, design[:, 0] + rng.standard_normal(40))
            solver = _GramSolver(data)
            for k in (1, 3, 7):
                loop = [solver.objective(c) for c in itertools.combinations(range(7), k)]
                assert np.array_equal(_mse_objectives(data, k), np.array(loop))

    def test_iteration_cap_names_the_support(self, rng, monkeypatch):
        data, _ = planted_instance(rng, d=6, k=2, noise=1.0)
        monkeypatch.setattr(stacked, "ITERATIONS_PER_VARIABLE", 0)
        with pytest.raises(LpError, match=r"support \(0, 1\).*iteration cap"):
            brute_force_subset(data, 2, "se")

    def test_certificate_miss_raises(self, rng, monkeypatch):
        data, _ = planted_instance(rng, d=6, k=2, noise=1.0)
        solve = sparse.solve_box_stack

        def shifted(*args):
            sol = solve(*args)
            return sol._replace(objective=sol.objective - 1e-6)

        monkeypatch.setattr(sparse, "solve_box_stack", shifted)
        with pytest.raises(LpError, match="disagrees"):
            brute_force_subset(data, 2, "se")
