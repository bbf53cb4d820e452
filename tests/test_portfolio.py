import numpy as np
import pytest

from quadlab import portfolio
from quadlab.distributions import make_sample
from quadlab.experiments import (FOUR_ASSET_TARGET_MEAN, ExperimentConfig, four_asset_returns,
                                 run_fig1_sweep)
from quadlab.functionals import cvar, probability_interval_at, var
from quadlab.lp_core import LpProblem, crash_basis, solve_lp
from quadlab.lp_core.simplex import CRASH_POOL
from quadlab.portfolio import (
    InfeasibleTarget,
    PortfolioProblem,
    cvar_deviation_of,
    default_start,
    equivalence_sweep,
    map_x_to_alpha,
    optimize_cvar_dev,
    optimize_se_dev,
    scenario_crash,
    se_deviation_of,
)


def _record_starts(monkeypatch):
    """Record the (LP, start, options) of every portfolio solve from here on."""
    starts = []
    real = portfolio.solve_lp

    def recorded(lp, warm, **kw):
        starts.append((lp, warm, kw))
        return real(lp, warm=warm, **kw)

    monkeypatch.setattr(portfolio, "solve_lp", recorded)
    return starts


def random_returns(rng, n=80, m=4):
    factor = rng.standard_normal((n, 1))
    means = rng.uniform(0.0002, 0.002, m)
    return means + 0.02 * rng.standard_normal((n, m)) + 0.01 * factor


class TestSolutions:
    def test_risk_free_asset_reaches_zero_deviation(self, rng):
        r = random_returns(rng)
        mu = 0.0011
        r[:, 0] = mu
        prob = PortfolioProblem(r, mu)
        assert optimize_se_dev(prob, 0.0).deviation == pytest.approx(0.0, abs=1e-10)
        assert optimize_cvar_dev(prob, 0.6).deviation == pytest.approx(0.0, abs=1e-10)

    def test_identical_assets_tie(self, rng):
        base = random_returns(rng, m=2)
        r = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
        mu = float(base[:, 0].mean())
        sol = optimize_se_dev(PortfolioProblem(r, mu), 0.0)
        dup = sol.weights.copy()
        dup[0], dup[1] = dup[1], dup[0]
        swapped = make_sample(-(r @ dup))
        assert se_deviation_of(swapped, 0.0) == pytest.approx(sol.deviation, abs=1e-10)

    def test_single_scenario_constant_loss(self, rng):
        r = random_returns(rng, n=1)
        mu = float(r.mean())
        sol = optimize_cvar_dev(PortfolioProblem(r, mu), 0.5)
        assert sol.deviation == pytest.approx(0.0, abs=1e-10)

    def test_constraints_enforced(self, rng):
        for _ in range(5):
            r = random_returns(rng)
            mu = float(r.mean(axis=0).mean())
            for sol in (optimize_se_dev(PortfolioProblem(r, mu), 0.003),
                        optimize_cvar_dev(PortfolioProblem(r, mu), 0.8)):
                assert sol.weights.sum() == pytest.approx(1.0, abs=1e-8)
                assert -sol.losses.mean() == pytest.approx(mu, abs=1e-7)

    def test_long_only_flag(self, rng):
        r = random_returns(rng)
        mu = float(r.mean(axis=0).mean())
        sol = optimize_se_dev(PortfolioProblem(r, mu, long_only=True), 0.0)
        assert np.min(sol.weights) >= -1e-8

    def test_infeasible_target(self, rng):
        r = np.full((40, 2), 0.001) + 1e-5 * rng.standard_normal((40, 2))
        r[:, 1] = r[:, 0]  # both assets identical: only one attainable mean per scenario mix
        prob = PortfolioProblem(r, 0.5)
        with pytest.raises(InfeasibleTarget):
            optimize_se_dev(prob, 0.0)


class TestAlphaMap:
    def test_counting_interior(self):
        losses = make_sample([1.0, 2.0, 3.0])
        assert map_x_to_alpha(losses, 0.5) == (2 / 3, 2 / 3)

    def test_constant_losses(self):
        losses = make_sample([2.0, 2.0])
        assert map_x_to_alpha(losses, 0.5) == (1.0, 1.0)

    def test_threshold_on_atom(self):
        losses = make_sample([0.0, 1.0])
        assert map_x_to_alpha(losses, -0.5) == (0.0, 0.5)


class TestSweep:
    def test_rejects_empty_grid(self, rng):
        with pytest.raises(ValueError):
            equivalence_sweep(random_returns(rng), 0.001, [])

    def test_risk_free_grid_is_flat_zero(self, rng):
        r = random_returns(rng)
        mu = 0.0011
        r[:, 0] = mu
        rows = equivalence_sweep(r, mu, [0.0, 0.002])
        for rw in rows:
            assert rw["se_dev_opt"] == pytest.approx(0.0, abs=1e-10)

    def test_cross_gaps_small(self, rng):
        # At the mapped level the part-balancing weights are tail-average
        # optimal, but the tail-average solve may return another vertex of
        # its optimal face, whose part-balancing deviation differs by an
        # O(assets/n) amount; at n=500 a few parts in 1e4 is the honest
        # scale (the n=10^4 acceptance run holds 1e-5 with margin).
        r = random_returns(rng, n=500)
        mu = float(r.mean(axis=0).mean())
        rows = equivalence_sweep(r, mu, [0.0, 0.002, 0.006])
        for rw in rows:
            assert rw["error"] == ""
            rel1 = abs(rw["cvar_dev_opt"] - rw["cvar_dev_at_se_opt"]) / max(1e-12, abs(rw["cvar_dev_opt"]))
            rel2 = abs(rw["se_dev_opt"] - rw["se_dev_at_cvar_opt"]) / max(1e-12, abs(rw["se_dev_opt"]))
            assert rel1 <= 2e-3
            assert rel2 <= 2e-3

    @pytest.mark.parametrize("n", [100, 400])
    def test_mapped_level_closes_the_tail_average_gap(self, monkeypatch, n):
        # alpha = 1 - sum(u) off the part-balancing dual, where the
        # part-balancing weights are tail-average optimal: over the paper's
        # grid the tail-average cross-gap is rounding, and alpha lies in the
        # part-balancing solution's induced interval
        se_sols = []
        real = portfolio.optimize_se_dev

        def recorded(*args):
            se_sols.append(real(*args))
            return se_sols[-1]

        monkeypatch.setattr(portfolio, "optimize_se_dev", recorded)
        for seed in (1, 2, 3):
            se_sols.clear()
            table = run_fig1_sweep(ExperimentConfig(experiment="fig1_sweep", seed=seed,
                                                    sample_sizes=[n]))
            assert len(se_sols) == len(table.rows)
            for sol, alpha, gap in zip(se_sols, table.column("alpha"),
                                       table.column("rel_gap_cvar")):
                assert gap <= 1e-12, (seed, alpha, gap)
                lo, hi = sol.alpha_interval
                assert lo <= alpha <= hi, (seed, alpha, lo, hi)

    @pytest.mark.parametrize("long_only", [False, True])
    def test_crossover_start_matches_independent_chain(self, rng, long_only):
        # Each sweep CVaR solve starts at its point's SE optimum; a solve
        # started from the default guess must reach the same optimum.
        r = random_returns(rng, n=300, m=5)
        means = np.sort(r.mean(axis=0))
        # Long-only, a target near the top asset mean leaves some weights at
        # zero, so some asset rows are slack at the optimum.
        mu = float(means[-2]) if long_only else float(means.mean())
        problem = PortfolioProblem(r, mu, long_only=long_only)
        rows = equivalence_sweep(r, mu, [0.0, 0.002, 0.005, 0.01], long_only=long_only)
        for rw in rows:
            assert rw["error"] == ""
            assert rw["cvar_warm_used"]
            sol = optimize_cvar_dev(problem, rw["alpha"])
            assert sol.lp.warm_used
            assert sol.deviation == pytest.approx(rw["cvar_dev_opt"], rel=1e-9, abs=0.0)
        if long_only:
            se = optimize_se_dev(problem, 0.0)
            assert np.min(se.weights) <= 1e-12

    def test_default_start_meets_budget_and_target(self, rng):
        r = random_returns(rng, m=5)
        mu = float(r.mean(axis=0).mean())
        w = default_start(PortfolioProblem(r, mu))
        rbar = r.mean(axis=0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert rbar @ w == pytest.approx(mu, abs=1e-15)
        assert set(np.flatnonzero(w).tolist()) == {int(np.argmin(rbar)), int(np.argmax(rbar))}

    def test_scenario_crash_reads_the_se_optimum(self, rng, monkeypatch):
        r = random_returns(rng, n=400, m=4)
        problem = PortfolioProblem(r, float(r.mean(axis=0).mean()))
        n = problem.n
        x = 0.003
        se = optimize_se_dev(problem, x)
        alpha = se.alpha_interval[1]
        threshold = var(se.losses, alpha).lower
        above, order = scenario_crash(problem, se.weights, threshold)
        atoms = se.losses.atoms
        # VaR-_alpha(x) is the atom tied at x + E[X]
        assert threshold == pytest.approx(x + se.losses.mean(), abs=1e-9)
        assert np.array_equal(above, atoms > threshold + 1e-9)
        # Both free multipliers, then the tied scenarios, then as many of
        # the lowest-loss scenarios above the threshold as a crash reads.
        tied = np.flatnonzero(np.abs(atoms - threshold) <= 1e-9)
        assert 0 < tied.size <= problem.m - 1
        assert order[:2 + tied.size].tolist() == [n, n + 1, *tied.tolist()]
        rest = order[2 + tied.size:]
        assert rest.size == min(CRASH_POOL * (problem.m + 1), above.sum())
        assert np.all(above[rest])
        assert np.array_equal(atoms[rest], np.sort(atoms[above])[:rest.size])
        # At alpha(x) the tail at the cap already sums to one.
        assert above.sum() / problem.n == pytest.approx(1.0 - alpha, abs=1e-15)
        # The part-balancing dual, which has no sum-to-one row, reads the
        # same order off the same losses; its crash is the SE optimum's
        # basis: the free multipliers and the tied scenarios.
        above_se, order_se = scenario_crash(problem, se.weights, x + se.losses.mean())
        assert np.array_equal(above_se, above)
        assert np.array_equal(order_se, order[:order_se.size])
        starts = _record_starts(monkeypatch)
        assert optimize_se_dev(problem, x, start=se.weights).lp.warm_used
        assert set(starts[-1][1][0].tolist()) == {n, n + 1, *tied.tolist()}
        # In the tail-average dual the first tied scenario holds the
        # sum-to-one row.  What the next one keeps off that row, its asset
        # entries, is under a tenth of its entry 1 there, so the crash skips
        # it and the asset rows keep their slacks.
        sol = optimize_cvar_dev(problem, alpha, start=se.weights)
        assert sol.lp.warm_used
        assert {n, n + 1, tied[0]} <= set(starts[-1][1][0].tolist())
        cold = optimize_cvar_dev(problem, alpha)
        assert sol.deviation == pytest.approx(cold.deviation, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("long_only", [False, True])
    def test_cvar_dual_is_the_se_dual_plus_its_sum_row(self, rng, long_only):
        r = random_returns(rng, n=120, m=4)
        problem = PortfolioProblem(r, float(np.sort(r.mean(axis=0))[-2]), long_only)
        n, m = problem.n, problem.m
        se, tail = problem.se_dual, problem.cvar_dual
        assert tail.num_rows == m + 1
        assert tail.matrix[:m].tobytes() == se.matrix.tobytes()
        assert tail.rhs[:m].tobytes() == se.rhs.tobytes()
        assert tail.relations[:m] == se.relations == ("<=" if long_only else "=",) * m
        assert np.array_equal(tail.matrix[m], np.append(np.ones(n), [0.0, 0.0]))
        assert tail.rhs[m] == 1.0 and tail.relations[m] == "="
        # asset j's slack is column n + 2 + j in both duals, where the crash puts it
        w = default_start(problem)
        idle = np.flatnonzero(w == 0.0)
        _, order = scenario_crash(problem, w, 0.0)
        assert order[2:2 + idle.size].tolist() == (n + 2 + idle).tolist()
        for lp in (se, tail):
            assert np.array_equal(lp.extended[:, n + 2 + idle], np.eye(lp.num_rows)[:, idle])
        # the natural rows, raw returns against a right-hand side of the
        # mean returns, give the same optimum and weights from a cold start
        alpha = 0.8
        sol = optimize_cvar_dev(problem, alpha)
        raw = LpProblem(n + 2)
        raw.set_objective(tail.objective)
        raw.set_bounds(slice(0, n), 0.0, 1.0 / ((1.0 - alpha) * n))
        raw.add_rows(np.column_stack((r.T, np.ones(m), problem.mean_returns)),
                     "<=" if long_only else "=", problem.mean_returns)
        raw.add_row(np.append(np.ones(n), [0.0, 0.0]), "=", 1.0)
        cold = solve_lp(raw)
        assert cold.status == "optimal"
        assert cold.objective == pytest.approx(sol.lp.objective, rel=1e-9, abs=1e-12)
        assert np.allclose(-cold.duals[:m], sol.weights, rtol=0.0, atol=1e-8)

    def test_default_crash_keeps_idle_slacks_basic(self, rng, monkeypatch):
        # the default guess leaves all but two assets idle: both free
        # multipliers and the idle assets' slacks start basic in both duals;
        # they fill the part-balancing dual's rows, and the tail-average
        # dual's last row takes one scenario
        r = random_returns(rng, n=200, m=5)
        problem = PortfolioProblem(r, float(r.mean(axis=0).mean()))
        w = default_start(problem)
        idle = np.flatnonzero(w == 0.0)
        n = problem.n
        _, order = scenario_crash(problem, w, 0.0)
        assert order[:2 + idle.size].tolist() == [n, n + 1, *(n + 2 + idle).tolist()]
        starts = _record_starts(monkeypatch)
        assert optimize_se_dev(problem, 0.0).lp.warm_used
        assert optimize_cvar_dev(problem, 0.7).lp.warm_used
        (_, (se_basis, _), _), (_, (cvar_basis, _), _) = starts
        assert set(se_basis.tolist()) == {n, n + 1, *(n + 2 + idle).tolist()}
        assert {n, n + 1, *(n + 2 + idle).tolist()} <= set(cvar_basis.tolist())
        assert np.count_nonzero(cvar_basis < n) == 1

    def test_long_only_crossover_keeps_idle_slacks_basic(self, rng, monkeypatch):
        # An asset the part-balancing optimum leaves idle has a slack asset
        # row in the tail-average optimum; starting with that slack basic
        # saves the pivots that would bring it back in.
        real = portfolio.solve_lp
        starts = _record_starts(monkeypatch)
        before = after = idle_points = moved = 0
        for _ in range(20):
            r = random_returns(rng, n=300, m=5)
            problem = PortfolioProblem(r, float(np.sort(r.mean(axis=0))[-2]), long_only=True)
            n = problem.n
            for x in (0.0, 0.004, 0.01):
                se = optimize_se_dev(problem, x)
                alpha = se.alpha_interval[1]
                idle = np.flatnonzero(se.weights <= 1e-8)
                idle_points += idle.size > 0
                new = optimize_cvar_dev(problem, alpha, start=se.weights)
                lp, (basis, _), kw = starts[-1]
                assert set((n + 2 + idle).tolist()) <= set(basis.tolist())
                # the crash of the same order without the idle slacks; where
                # it still keeps them basic, the two starts are one
                above, order = scenario_crash(problem, se.weights, var(se.losses, alpha).lower)
                other = crash_basis(lp, above, order[order < n + 2])
                old = real(lp, warm=other, **kw)
                assert old.warm_used and new.lp.warm_used
                assert old.status == "optimal"
                assert old.objective == pytest.approx(new.lp.objective, rel=0.0, abs=1e-12)
                if set(other[0].tolist()) != set(basis.tolist()):
                    moved += 1
                    before += old.iterations
                    after += new.lp.iterations
        assert idle_points >= 10 and moved >= 5
        assert after < 0.85 * before

    @pytest.mark.parametrize("long_only", [False, True])
    def test_sweep_solves_run_the_dual_phase(self, monkeypatch, long_only):
        # every solve of a sweep starts from its crash, and over the paper's
        # grid the dual phase does most of the work under both policies (a
        # primal-feasible crash, or an entry rule that fails, leaves a few
        # pivots to phases 1 and 2)
        solves = []
        real = portfolio.solve_lp

        def recorded(lp, warm, **kw):
            solves.append(real(lp, warm=warm, **kw))
            return solves[-1]

        monkeypatch.setattr(portfolio, "solve_lp", recorded)
        grid = ExperimentConfig(experiment="fig1_sweep").x_grid
        phases = np.zeros(3, dtype=int)
        for seed in (1, 2, 3):
            r = four_asset_returns(2000, seed)
            mu = float(np.sort(r.mean(axis=0))[-2]) if long_only else FOUR_ASSET_TARGET_MEAN
            rows = equivalence_sweep(r, mu, grid, long_only=long_only)
            assert all(rw["error"] == "" for rw in rows)
            phases += np.sum([rw["lp_phase_iterations"] for rw in rows], axis=0)
        assert len(solves) == 3 * 2 * len(grid)
        assert all(sol.warm_used for sol in solves)
        assert phases[0] >= 0.8 * phases.sum()

    def test_alpha_interval_brackets_mean_threshold_at_zero_bias(self, rng):
        r = random_returns(rng, n=200)
        mu = float(r.mean(axis=0).mean())
        sol = optimize_se_dev(PortfolioProblem(r, mu), 0.0)
        lo, hi = sol.alpha_interval
        below, at_or_below = map_x_to_alpha(sol.losses, 0.0)
        assert (lo, hi) == (below, at_or_below)
        assert lo <= hi


def _four_asset_problem(long_only: bool) -> PortfolioProblem:
    r = four_asset_returns(400, 7)
    mu = float(np.sort(r.mean(axis=0))[-2]) if long_only else FOUR_ASSET_TARGET_MEAN
    return PortfolioProblem(r, mu, long_only)


class TestLazyAlphaInterval:
    """``alpha_interval`` is computed on first read, from the solve's x or alpha."""

    @pytest.mark.parametrize("long_only", [False, True])
    def test_matches_the_eager_formulas(self, long_only):
        problem = _four_asset_problem(long_only)
        for x in (-0.01, 0.0, 0.01, 0.05):
            sol = optimize_se_dev(problem, x)
            assert sol.alpha_interval == map_x_to_alpha(sol.losses, x)
        for alpha in (0.05, 0.5, 0.9, 0.99):
            sol = optimize_cvar_dev(problem, alpha)
            losses = sol.losses
            assert sol.alpha_interval == probability_interval_at(
                losses, var(losses, alpha).lower, atol=portfolio._tie_band(losses.atoms))

    @pytest.mark.parametrize("long_only", [False, True])
    def test_the_sweep_never_computes_it(self, monkeypatch, long_only):
        problem = _four_asset_problem(long_only)
        grid = ExperimentConfig(experiment="fig1_sweep").x_grid
        want = equivalence_sweep(problem.returns, problem.target_mean, grid, long_only)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep computed an alpha_interval")

        monkeypatch.setattr(portfolio, "map_x_to_alpha", refuse)
        monkeypatch.setattr(portfolio, "probability_interval_at", refuse)
        got = equivalence_sweep(problem.returns, problem.target_mean, grid, long_only)
        assert all(rw["error"] == "" for rw in got)
        assert got == want


def _fresh_problem_per_solve(monkeypatch):
    """From here on, every portfolio solve runs on a new copy of its problem."""
    def fresh(solve):
        def call(problem, *args):
            return solve(PortfolioProblem(problem.returns, problem.target_mean,
                                          problem.long_only), *args)
        return call

    monkeypatch.setattr(portfolio, "optimize_se_dev", fresh(portfolio.optimize_se_dev))
    monkeypatch.setattr(portfolio, "_optimize_cvar", fresh(portfolio._optimize_cvar))


def _assert_same_solution(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert (a.deviation, a.alpha_interval) == (b.deviation, b.alpha_interval)
    for name in ("x", "duals", "reduced_costs", "basis", "vstate"):
        assert np.array_equal(getattr(a.lp, name), getattr(b.lp, name))
    assert (a.lp.objective, a.lp.phase_iterations, a.lp.bound_flips, a.lp.warm_used) == \
        (b.lp.objective, b.lp.phase_iterations, b.lp.bound_flips, b.lp.warm_used)


class TestCachedDuals:
    """Each problem builds its two scenario duals once and re-solves them."""

    @pytest.mark.parametrize("long_only", [False, True])
    @pytest.mark.parametrize("duplicated", [False, True])
    def test_sweep_reuse_changes_nothing(self, monkeypatch, long_only, duplicated):
        r = four_asset_returns(400, 2)
        if duplicated:
            r = np.repeat(r, 2, axis=0)
        mu = float(np.sort(r.mean(axis=0))[-2]) if long_only else FOUR_ASSET_TARGET_MEAN
        grid = ExperimentConfig(experiment="fig1_sweep").x_grid
        starts = _record_starts(monkeypatch)
        shared = equivalence_sweep(r, mu, grid, long_only=long_only)
        # one part-balancing and one tail-average dual served every point
        assert len(starts) == 2 * len(grid) and len({id(lp) for lp, _, _ in starts}) == 2
        assert all(rw["error"] == "" for rw in shared)
        _fresh_problem_per_solve(monkeypatch)
        fresh = equivalence_sweep(r, mu, grid, long_only=long_only)
        assert len({id(lp) for lp, _, _ in starts}) == 2 + 2 * len(grid)
        # repr prints each float exactly, and NaN alike
        assert repr(shared) == repr(fresh)

    def test_alternating_objectives_change_nothing(self, rng):
        r = random_returns(rng, n=300, m=5)
        mu = float(r.mean(axis=0).mean())
        problem = PortfolioProblem(r, mu)
        first = optimize_se_dev(problem, 0.004)
        tail = optimize_cvar_dev(problem, 0.8, start=first.weights)
        again = optimize_se_dev(problem, 0.001, start=tail.weights)
        _assert_same_solution(first, optimize_se_dev(PortfolioProblem(r, mu), 0.004))
        _assert_same_solution(tail, optimize_cvar_dev(PortfolioProblem(r, mu), 0.8,
                                                      start=first.weights))
        _assert_same_solution(again, optimize_se_dev(PortfolioProblem(r, mu), 0.001,
                                                     start=tail.weights))

    def test_equality_is_identity(self, rng):
        r = random_returns(rng, n=50, m=3)
        problem = PortfolioProblem(r, 0.001)
        assert problem == problem and not problem != problem
        assert problem != PortfolioProblem(r, 0.001)
        assert len({problem, problem, PortfolioProblem(r, 0.001)}) == 2
        # two solves of one problem are two solutions, each equal to itself
        first, second = optimize_se_dev(problem, 0.0), optimize_se_dev(problem, 0.0)
        assert first == first and first != second
        assert len({first, first, second}) == 2

    def test_caller_writes_do_not_reach_the_problem(self, rng):
        r = random_returns(rng, n=200, m=4)
        mu = float(r.mean(axis=0).mean())
        problem = PortfolioProblem(r, mu)
        before = optimize_se_dev(problem, 0.002), optimize_cvar_dev(problem, 0.7)
        reference = r.copy()
        r[:] = rng.standard_normal(r.shape)
        after = optimize_se_dev(problem, 0.002), optimize_cvar_dev(problem, 0.7)
        for old, new in zip(before, after):
            _assert_same_solution(old, new)
        assert np.array_equal(problem.returns, reference)
        assert r.flags.writeable
        with pytest.raises(ValueError):
            problem.returns[0, 0] = 1.0
        with pytest.raises(ValueError):
            problem.mean_returns[0] = 1.0


class TestDeviationHelpers:
    def test_cvar_deviation_matches_functionals(self, rng):
        atoms = rng.standard_normal(30)
        losses = make_sample(atoms)
        assert cvar_deviation_of(losses, 0.7) == pytest.approx(
            cvar(losses, 0.7) - losses.mean(), abs=1e-12)

    def test_se_deviation_nonnegative_for_positive_bias(self, rng):
        losses = make_sample(rng.standard_normal(30))
        assert se_deviation_of(losses, 0.4) >= -1e-12
