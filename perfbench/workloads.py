"""The four benchmark workloads and their correctness gates.

Each workload draws a fixed list of instances from the seed, runs one
instance at a time through quadlab's public functions, and checks every
operation of it.  quadlab is always called through module attributes
(``regression.fit_se``, not a name imported here), so that the traced run
sees the calls the benchmark makes.

Gates hold at any seed: they are exact consequences of optimality or of an
identity, at the tolerances of ``tests/test_acceptance.py``.  Figures whose
size depends on the draw (recovery, monotone averages, the sweep's
cross-gap) are reported as verdicts and not gated.  ``perturb`` returns
deliberately wrong copies of a passing operation; the run's self-test
requires the gate to reject every one of them.
"""

from __future__ import annotations

import math

import numpy as np

from quadlab import distributions, experiments, functionals, regression, sparse

ORDER_RTOL = 1e-9        # an optimum may exceed another point's value by rounding only
CONSISTENCY_RTOL = 1e-9  # reported objective against its recomputation from the model
EQUIVALENCE_TOL = 1e-6   # pinball equivalence, acceptance criterion 3
ORACLE_TOL = 1e-6        # sparse objective against the exhaustive oracle, criterion 7
IDENTITY_TOL = 1e-10     # functional identities, criterion 1
MEAN_TOL = 1e-7          # residual mean of a biased-mean fit against -x
ZERO_COEFF = 1e-8        # sparse.ZERO_COEFF_TOL


def _seeds(tag: int, seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence([tag, seed]).generate_state(count)
    return [int(s) for s in state]


def _attempt(kind: str, call) -> dict:
    """Run one operation; an exception becomes a failed operation."""
    try:
        op = call()
    except Exception as exc:  # any raise is a failed operation, and the round goes on
        return {"kind": kind, "error": f"{type(exc).__name__}: {exc}"}
    op["kind"] = kind
    return op


def _residuals(op: dict, data) -> np.ndarray:
    return data.response - op["intercept"] - data.design @ op["coef"]


def _pinball(z: np.ndarray, alpha: float) -> float:
    ratio = alpha / (1.0 - alpha)
    return float(np.mean(ratio * np.maximum(z, 0.0) + np.maximum(-z, 0.0)))


def _balance(z: np.ndarray, x: float) -> float:
    return max(float(np.mean(np.maximum(-z, 0.0))) - max(x, 0.0),
               float(np.mean(np.maximum(z, 0.0))) - max(-x, 0.0))


def _mismatch(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) > CONSISTENCY_RTOL * max(1.0, abs(recomputed))


def _model(model) -> dict:
    return {"intercept": float(model.intercept), "coef": np.array(model.coefficients),
            "objective": float(model.objective)}


def _moved(op: dict, **changes) -> dict:
    out = dict(op)
    out.update(changes)
    return out


def _moved_coef(op: dict, j: int, step: float) -> dict:
    coef = op["coef"].copy()
    coef[j] += step
    return _moved(op, coef=coef)


class PortfolioSweep:
    """25-point warm-chained equivalence sweeps through ``run_fig1_sweep``.

    The sweep is shrunk from 10,000 scenarios to ``SCENARIOS`` so that a
    run holds many independent sweeps, whose costs vary by about 15 % from
    draw to draw; every grid point stays.
    """

    name = "portfolio_sweep"
    SCENARIOS = 500
    SWEEPS = 40

    def instances(self, seed):
        return [experiments.ExperimentConfig(experiment="fig1_sweep", seed=s,
                                             sample_sizes=[self.SCENARIOS])
                for s in _seeds(1, seed, self.SWEEPS)]

    def warmup(self, configs):
        experiments.run_fig1_sweep(experiments.ExperimentConfig(
            experiment="fig1_sweep", seed=configs[0].seed, sample_sizes=[200],
            x_grid=configs[0].x_grid[:1]))

    def run(self, config):
        try:
            table = experiments.run_fig1_sweep(config)
        except Exception as exc:  # the whole sweep failed; each point counts
            error = f"{type(exc).__name__}: {exc}"
            return [{"kind": "sweep_point", "error": error} for _ in config.x_grid]
        return [{"kind": "sweep_point", "alpha": row[1], "se_opt": row[2],
                 "cvar_at_se": row[3], "cvar_opt": row[4], "se_at_cvar": row[5]}
                for row in table.rows]

    def check(self, op):
        values = [op["alpha"], op["se_opt"], op["cvar_at_se"], op["cvar_opt"], op["se_at_cvar"]]
        if not all(math.isfinite(v) for v in values):
            return "sweep point has no result (solver error)", None
        gap = max(abs(op["cvar_opt"] - op["cvar_at_se"]) / op["cvar_opt"],
                  abs(op["se_opt"] - op["se_at_cvar"]) / op["se_opt"]) \
            if min(op["cvar_opt"], op["se_opt"]) > 0 else math.inf
        if not 0.0 < op["alpha"] < 1.0:
            return f"mapped level {op['alpha']} outside (0, 1)", gap
        if min(values[1:]) <= 0.0:
            return "non-positive deviation", gap
        if op["cvar_opt"] > op["cvar_at_se"] * (1.0 + ORDER_RTOL):
            return "tail-average optimum exceeds its value at the part-balancing optimum", gap
        if op["se_opt"] > op["se_at_cvar"] * (1.0 + ORDER_RTOL):
            return "part-balancing optimum exceeds its value at the tail-average optimum", gap
        return None, gap

    def perturb(self, op):
        return [("part-balancing optimum raised 5%", _moved(op, se_opt=op["se_opt"] * 1.05)),
                ("tail-average optimum raised 5%", _moved(op, cvar_opt=op["cvar_opt"] * 1.05)),
                ("sweep point lost", _moved(op, alpha=math.nan))]

    def verdicts(self, ops):
        return {}


class SparseSubset:
    """Best-subset replications shaped like ``sparse_recovery``, oracle on.

    n, rho and k are the experiment's; the dimension is cut from 30 to
    ``DIM`` (56 oracle subsets instead of 4,060) so that a run holds
    many replications: the branch-and-bound node count of one replication
    varies by about 30 % from draw to draw, and a pass must average that
    out.  One instance is one error kind on one replication.
    """

    name = "sparse_subset"
    N = 100
    DIM = 8
    RHO = 0.9
    K = 3
    REPLICATIONS = 48
    MAX_NODES = 1500
    SOLVERS = {"se": sparse.fit_sparse_se, "mse": sparse.fit_sparse_mse}

    def instances(self, seed):
        return [(*self._replication(s), kind)
                for s in _seeds(2, seed, self.REPLICATIONS) for kind in self.SOLVERS]

    def _replication(self, rep_seed):
        # The planted-support generator of experiments._sparse_replication.
        s_x, s_c, s_eps = np.random.SeedSequence(rep_seed).spawn(3)
        design = distributions.sample_correlated_design(
            distributions.DesignSpec(self.DIM, self.RHO), self.N, s_x)
        rng_c = np.random.default_rng(s_c)
        block = self.DIM // self.K
        support = np.array([b * block + rng_c.integers(block) for b in range(self.K)])
        truth = np.zeros(self.DIM)
        truth[support] = rng_c.choice([-1.0, 1.0], size=self.K)
        response = design @ truth + np.random.default_rng(s_eps).standard_normal(self.N)
        return regression.Dataset(design, response), truth

    def warmup(self, replications):
        regression.fit_se(replications[0][0])

    def run(self, instance):
        data, truth, kind = instance

        def call():
            problem = sparse.SparseProblem(data, k=self.K, error_kind=kind,
                                           max_nodes=self.MAX_NODES)
            sol = self.SOLVERS[kind](problem)
            oracle = sparse.brute_force_subset(data, self.K, kind)
            op = _model(sol.model)
            op.update(objective=float(sol.objective), oracle=float(oracle.objective),
                      data=data, truth=truth)
            return op
        return [_attempt(kind, call)]

    def check(self, op):
        diff = abs(op["objective"] - op["oracle"])
        if diff > ORACLE_TOL:
            return f"objective misses the oracle by {diff:.3e}", diff
        z = _residuals(op, op["data"])
        error = float(np.mean(z * z)) if op["kind"] == "mse" else _balance(z, 0.0)
        if _mismatch(op["objective"], error):
            return "reported objective differs from the model's error", diff
        if int(np.sum(np.abs(op["coef"]) > ZERO_COEFF)) > self.K:
            return "support larger than k", diff
        return None, diff

    def perturb(self, op):
        j = int(np.argmax(np.abs(op["coef"])))
        return [("objective shifted by 1e-4", _moved(op, objective=op["objective"] + 1e-4)),
                ("oracle objective shifted by 1e-4", _moved(op, oracle=op["oracle"] + 1e-4)),
                ("largest coefficient moved by 0.1", _moved_coef(op, j, 0.1))]

    def verdicts(self, ops):
        out = {}
        for kind in ("se", "mse"):
            done = [op for op in ops if op["kind"] == kind and "error" not in op]
            perfect = sum(bool(np.all(np.abs(op["coef"][op["truth"] != 0]) > ZERO_COEFF))
                          for op in done)
            out[f"{kind}_perfect_recovery"] = f"{perfect}/{len(done)}"
        return out


class RegressionFits:
    """tables345-shaped fits at three sample sizes plus the table2 pair.

    Each replication draws Y = X + eps (eps standardized skew-normal) at
    n = 100, 1,000 and 10,000 and fits OLS, the part-balancing error, the
    pinball loss at the level where the noise's quantile is zero, and the
    biased mean at x = 0.005.  Each part-balancing fit is followed by the pinball fit at
    its ``equiv_alpha``, which its gate compares against.  One instance is
    the four fits on one data set.  The pivot count of a fit at n = 10,000
    ranges from a few to over a hundred with the draw, so a pass holds many
    replications.
    """

    name = "regression_fits"
    SIZES = (100, 1000, 10000)
    REPLICATIONS = 60
    SHAPE = 10.0
    BIAS = 0.005

    def instances(self, seed):
        """One ("fits", data, level) per replication and size, then ("table2", config, None)."""
        seeds = _seeds(3, seed, self.REPLICATIONS + 1)
        level = distributions.skew_normal_cdf_at_zero(self.SHAPE)
        out = []
        for rep_seed in seeds[:-1]:
            for n, size_seed in zip(self.SIZES,
                                    np.random.SeedSequence(rep_seed).spawn(len(self.SIZES))):
                s_x, s_eps = size_seed.spawn(2)
                x = np.random.default_rng(s_x).standard_normal(n)
                eps = distributions.sample_skew_normal(
                    distributions.SkewNormalSpec(self.SHAPE), n, s_eps)
                out.append(("fits", regression.Dataset(x[:, None], x + eps), level))
        table2 = experiments.ExperimentConfig(experiment="table2_pattern", seed=seeds[-1])
        return out + [("table2", table2, None)]

    def warmup(self, instances):
        _, data, level = instances[0]
        regression.fit_quantile(data, level)

    def _balance_op(self, data, x):
        model = regression.fit_se(data) if x == 0.0 else regression.fit_biased_mean(data, x)
        pinball = regression.fit_quantile(data, model.equiv_alpha)
        op = _model(model)
        op.update(data=data, x=x, alpha=float(model.equiv_alpha),
                  pinball_objective=float(pinball.objective))
        return op

    def run(self, instance):
        kind, data, level = instance
        if kind == "table2":
            return [_attempt("table2", lambda: self._table2(data))]
        ols = _attempt("ols", lambda: dict(_model(regression.fit_ols(data)), data=data))
        se = _attempt("balance", lambda: self._balance_op(data, 0.0))
        rivals = [(op["intercept"], op["coef"]) for op in (ols, se) if "error" not in op]

        def quantile():
            op = _model(regression.fit_quantile(data, level))
            op.update(data=data, alpha=level, rivals=rivals)
            return op

        return [ols, se, _attempt("quantile", quantile),
                _attempt("balance", lambda: self._balance_op(data, self.BIAS))]

    @staticmethod
    def _table2(config):
        table = experiments.run_table2_pattern(config)
        rows = dict(zip(table.row_labels, table.rows))
        se_at_bm, kb_at_bm = rows["errors_at_se_fit_optimum"]
        se_at_qr, kb_at_qr = rows["errors_at_kb_fit_optimum"]
        return {"se_at_bm": se_at_bm, "kb_at_bm": kb_at_bm,
                "se_at_qr": se_at_qr, "kb_at_qr": kb_at_qr}

    def check(self, op):
        kind = op["kind"]
        if kind == "table2":
            gap = abs(op["kb_at_bm"] - op["kb_at_qr"]) / max(1e-12, abs(op["kb_at_qr"]))
            if gap > EQUIVALENCE_TOL:
                return f"table2 pinball equivalence gap {gap:.3e}", gap
            if op["se_at_bm"] > op["se_at_qr"] * (1.0 + ORDER_RTOL):
                return "table2 biased-mean fit is beaten on its own error", gap
            return None, gap
        data = op["data"]
        z = _residuals(op, data)
        if kind == "ols":
            full = np.hstack((np.ones((data.n, 1)), data.design))
            ratio = float(np.max(np.abs(full.T @ z))) / (
                np.linalg.norm(full) * np.linalg.norm(data.response))
            if ratio > CONSISTENCY_RTOL:
                return f"normal equations violated ({ratio:.3e})", ratio
            if _mismatch(op["objective"], float(np.mean(z * z))):
                return "reported objective differs from the mean squared residual", ratio
            return None, ratio
        if kind == "quantile":
            if _mismatch(op["objective"], _pinball(z, op["alpha"])):
                return "reported objective differs from the pinball loss", None
            for intercept, coef in op["rivals"]:
                rival = _pinball(data.response - intercept - data.design @ coef, op["alpha"])
                if op["objective"] > rival * (1.0 + ORDER_RTOL):
                    return "pinball fit is beaten by another fit on its own loss", None
            return None, None
        gap = abs(_pinball(z, op["alpha"]) - op["pinball_objective"]) / max(
            1e-12, abs(op["pinball_objective"]))
        if gap > EQUIVALENCE_TOL:
            return f"pinball equivalence gap {gap:.3e}", gap
        if abs(float(np.mean(z)) + op["x"]) > MEAN_TOL:
            return "residual mean misses -x", gap
        if _mismatch(op["objective"], _balance(z, op["x"])):
            return "reported objective differs from the part-balancing error", gap
        return None, gap

    def perturb(self, op):
        kind = op["kind"]
        if kind == "table2":
            return [("pinball objective at the pinball fit raised by 1e-4",
                     _moved(op, kb_at_qr=op["kb_at_qr"] * (1.0 + 1e-4)))]
        moved = ("slope moved by 1e-3", _moved_coef(op, 0, 1e-3))
        if kind == "ols":
            return [moved]
        shifted = ("objective raised by 1e-4", _moved(op, objective=op["objective"] * (1 + 1e-4)))
        if kind == "quantile":
            return [shifted]
        return [shifted, moved,
                ("equivalent pinball optimum raised by 1e-4",
                 _moved(op, pinball_objective=op["pinball_objective"] * (1 + 1e-4)))]

    def verdicts(self, ops):
        """Average relative coefficient error, per fit kind, falls with n."""
        errors = {}
        fits = [op for op in ops if op["kind"] != "table2" and "error" not in op]
        for op in fits:
            est = np.array([op["intercept"], op["coef"][0]])
            label = op["kind"] if op["kind"] != "balance" else f"balance_x{op['x']:g}"
            errors.setdefault(label, {}).setdefault(op["data"].n, []).append(
                float(np.linalg.norm(est - np.array([0.0, 1.0])) / np.linalg.norm(est)))
        out = {}
        for label, by_n in errors.items():
            averages = [float(np.mean(by_n[n])) for n in sorted(by_n)]
            out[f"{label}_average_error_falls_with_n"] = all(
                b < a for a, b in zip(averages, averages[1:]))
        return out


class QuadrangleEval:
    """Corners of all three families and their cross-check counterparts.

    Samples are large and weighted, with atoms on a 2**-10 grid so that many
    of them tie.  One instance is one level, one bias or the L1 check on one
    sample, so that each is timed next to its own reference kernel call.
    """

    name = "quadrangle_eval"
    SAMPLES = 5
    SIZE = 8000
    GRID = 2.0 ** -10
    LEVELS = tuple(round(0.05 + 0.1 * k, 2) for k in range(10))
    BIASES = (-0.5, -0.1, 0.0, 0.1, 0.5)

    def instances(self, seed):
        samples = []
        for s in _seeds(4, seed, self.SAMPLES):
            rng = np.random.default_rng(s)
            atoms = np.round(rng.standard_normal(self.SIZE) / self.GRID) * self.GRID
            samples.append(distributions.make_sample(atoms, rng.uniform(0.05, 1.0, self.SIZE)))
        tasks = [("level", a) for a in self.LEVELS] + [("bias", x) for x in self.BIASES]
        return [(sample, task) for sample in samples for task in tasks + [("mean_l1", None)]]

    def warmup(self, instances):
        functionals.eval_quantile_quadrangle(instances[0][0], 0.5)

    def run(self, instance):
        sample, (kind, parameter) = instance
        task = {"level": self._level, "bias": self._bias, "mean_l1": self._mean_l1}[kind]
        return [_attempt(kind, lambda: task(sample, parameter))]

    @staticmethod
    def _level(sample, alpha):
        value, _ = functionals.cvar_via_min(sample, alpha)
        corners = functionals.eval_quantile_quadrangle(sample, alpha)
        return {"min_formula": value, "direct": functionals.cvar(sample, alpha),
                "risk": corners.risk}

    @staticmethod
    def _bias(sample, x):
        corners = functionals.eval_biased_mean_quadrangle(sample, x)
        dual, _ = functionals.superexpectation_dual(sample, x)
        center, value = functionals.error_projection(sample, x)
        return {"x": x, "sample": sample, "deviation": corners.deviation,
                "superexpectation": functionals.superexpectation(sample, x),
                "dual": dual, "center": center, "projection": value,
                "relations": float(np.max(functionals.quadrangle_relation_check(sample, x)))}

    @staticmethod
    def _mean_l1(sample, _):
        l1 = functionals.eval_mean_l1_quadrangle(sample)
        zero = functionals.eval_biased_mean_quadrangle(sample, 0.0)
        fields = ("risk", "deviation", "regret", "error", "statistic")
        return {"l1": [getattr(l1, f) for f in fields],
                "zero_bias": [getattr(zero, f) for f in fields]}

    def check(self, op):
        kind = op["kind"]
        if kind == "level":
            residual = max(abs(op["min_formula"] - op["direct"]), abs(op["risk"] - op["direct"]))
        elif kind == "mean_l1":
            residual = max(abs(a - b) for a, b in zip(op["l1"], op["zero_bias"]))
        else:
            sample = op["sample"]
            mean = float(sample.atoms @ sample.probabilities)
            residual = max(abs(op["dual"] - op["superexpectation"]),
                           abs(op["center"] - (op["x"] + mean)),
                           abs(op["projection"] - op["deviation"]),
                           op["relations"])
        if not residual <= IDENTITY_TOL:
            return f"{kind} identity residual {residual:.3e}", residual
        return None, residual

    def perturb(self, op):
        kind = op["kind"]
        if kind == "level":
            return [("min-formula tail average moved by 1e-8",
                     _moved(op, min_formula=op["min_formula"] + 1e-8))]
        if kind == "mean_l1":
            return [("L1 deviation moved by 1e-8",
                     _moved(op, l1=[v + 1e-8 for v in op["l1"]]))]
        return [("conjugate value moved by 1e-8", _moved(op, dual=op["dual"] + 1e-8)),
                ("projection centre moved by 1e-8", _moved(op, center=op["center"] + 1e-8)),
                ("projection value moved by 1e-8",
                 _moved(op, projection=op["projection"] + 1e-8)),
                ("relation residual of 1e-8", _moved(op, relations=1e-8))]

    def verdicts(self, ops):
        return {}


WORKLOADS = {w.name: w for w in (PortfolioSweep(), SparseSubset(), RegressionFits(),
                                 QuadrangleEval())}
