import csv
import json
import os

import numpy as np
import pytest

from quadlab import cli, experiments
from quadlab.cli import main
from quadlab.experiments import (
    CsvFormatError,
    ExperimentConfig,
    ReportTable,
    convergence_dataset,
    emit_report,
    json_text,
    load_csv,
    run_fig1_sweep,
    run_sparse_recovery,
    run_table2_pattern,
    run_tables345,
    verdicts_pass,
    write_csv,
)


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON: a NaN or Infinity token raises."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestCsvIo:
    def test_minimal_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        data = load_csv(str(path), "y")
        assert data.n == 2 and data.d == 1
        assert data.response.tolist() == [2.0, 4.0]

    def test_missing_target_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="'zz'"):
            load_csv(str(path), "zz")

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(str(path), "b")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="ragged"):
            load_csv(str(path), "b")

    def test_report_round_trip(self, tmp_path, rng):
        rows = rng.standard_normal((4, 3)).tolist()
        table = ReportTable(name="t", columns=["a", "b", "c"], rows=rows,
                            row_labels=["r1", "r2", "r3", "r4"])
        path = tmp_path / "t.csv"
        emit_report(table, str(path), "csv")
        with open(path, newline="", encoding="utf-8") as fh:
            head, *body = list(csv.reader(fh))
        assert head == ["label"] + table.columns
        assert [cells[0] for cells in body] == table.row_labels
        assert [[float(c) for c in cells[1:]] for cells in body] == table.rows  # bit-exact

    def test_matrix_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((5, 2))
        path = tmp_path / "m.csv"
        write_csv(str(path), ["u", "v"], m)
        header, back = load_csv(str(path))
        assert header == ["u", "v"]
        assert np.array_equal(back, m)

    def test_json_emit(self, tmp_path):
        table = ReportTable(name="t", columns=["a"], rows=[[1.25]],
                            metadata={"verdicts": {"ok": True}})
        path = tmp_path / "t.json"
        emit_report(table, str(path), "json")
        loaded = json.loads(path.read_text())
        assert loaded["rows"] == [[1.25]]
        assert loaded["metadata"]["verdicts"]["ok"] is True

    def test_json_report_writes_non_finite_cells_as_null(self, tmp_path):
        # without the oracle check the report has no oracle gap to give
        t = run_sparse_recovery(ExperimentConfig(
            experiment="sparse_recovery", seed=3, sample_sizes=[40], replications=1,
            dimension=6, k_star=2, oracle_check=False))
        path = tmp_path / "t.json"
        emit_report(t, str(path), "json")
        loaded = _strict_json(path.read_text())
        assert t.columns[-1] == "max_oracle_diff"
        assert [row[-1] for row in loaded["rows"]] == [None, None]
        assert loaded["metadata"]["verdicts"]["se_n40_oracle_within_1e-6"] is None
        assert all(line.endswith(",nan") for line in t.to_csv_text().splitlines()[1:])

    def test_json_text_refuses_what_it_cannot_write_as_null(self):
        assert json_text({"a": [1.0, np.inf, (np.nan,)]}) == json_text({"a": [1.0, None, [None]]})
        with pytest.raises(ValueError):
            json_text({"a": np.float32("nan")})  # not a float until json converts it


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(experiment="tables345")
        assert cfg.sample_sizes == [100, 1000, 10000]
        assert cfg.replications == 20
        assert len(cfg.x_grid) == 25

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bogus")

    def test_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "sparse_recovery", "seed": 5,
                                    "replications": 2, "dimension": 8, "k_star": 2}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.dimension == 8 and cfg.replications == 2


class TestHarness:
    def test_tables345_reduced_reproducible(self):
        cfg = ExperimentConfig(experiment="tables345", seed=7,
                               sample_sizes=[80, 400], replications=3)
        a = run_tables345(cfg)
        b = run_tables345(cfg)
        for t1, t2 in zip(a, b):
            assert t1.rows == t2.rows

    def test_tables345_embeds_metadata(self):
        cfg = ExperimentConfig(experiment="tables345", seed=7,
                               sample_sizes=[60], replications=2)
        t = run_tables345(cfg)[0]
        assert t.metadata["seed"] == 7
        assert "version" in t.metadata
        assert t.metadata["config"]["experiment"] == "tables345"

    def test_zero_noise_interpolates(self):
        # with the noise switched off every fit recovers the line exactly
        from quadlab.regression import Dataset, fit_ols, fit_quantile, fit_se
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        data = Dataset(x[:, None], x.copy())
        for model in (fit_ols(data), fit_se(data), fit_quantile(data, 0.57276)):
            est = np.array([model.intercept, model.coefficients[0]])
            assert np.linalg.norm(est - np.array([0.0, 1.0])) < 1e-7

    def test_table2_pattern_passes(self):
        t = run_table2_pattern(ExperimentConfig(experiment="table2_pattern", seed=99))
        assert t.metadata["verdicts"]["kb_cross_objective_within_1e-6"]
        assert verdicts_pass([t])

    def test_fig1_sweep_small(self):
        cfg = ExperimentConfig(experiment="fig1_sweep", seed=5,
                               sample_sizes=[1500], x_grid=[0.0, 0.01])
        t = run_fig1_sweep(cfg)
        assert t.columns[0] == "x"
        assert len(t.rows) == 2
        assert all(r[-1] in (0.0, 1.0) for r in t.rows)

    def test_fig1_sweep_seed_7000_passes(self):
        # A warm chain from the previous CVaR basis used to stop at the
        # iteration limit on the first two points of this draw.
        t = run_fig1_sweep(ExperimentConfig(experiment="fig1_sweep", seed=7000))
        assert len(t.rows) == 25
        assert np.all(t.column("pass") == 1.0)
        assert t.metadata["verdicts"]["all_points_within_1e-5"] is True
        assert 0 < t.metadata["diagnostics"]["cvar_iterations"] <= 25 * 20

    def test_sparse_recovery_reduced(self):
        cfg = ExperimentConfig(experiment="sparse_recovery", seed=3,
                               sample_sizes=[60], replications=2,
                               dimension=8, k_star=2)
        t = run_sparse_recovery(cfg)
        assert verdicts_pass([t])
        assert t.row_labels == ["se_n60", "mse_n60"]

    def test_thread_env_matches_sequential(self, monkeypatch):
        cfg = ExperimentConfig(experiment="tables345", seed=11,
                               sample_sizes=[70], replications=4)
        seq = run_tables345(cfg)
        monkeypatch.setenv("QUADLAB_THREADS", "2")
        par = run_tables345(cfg)
        for t1, t2 in zip(seq, par):
            assert t1.rows == t2.rows

    @pytest.mark.parametrize("env, cpus, expected", [
        ("64", 4, 4), ("3", 4, 3), ("4", 4, 4), ("0", 4, 1), ("-2", 4, 1),
        ("many", 4, 1), (None, 8, 1), ("64", None, 1),
    ])
    def test_worker_count_capped_at_cpus(self, monkeypatch, env, cpus, expected):
        # only reads the setting: no pool or process is started
        if env is None:
            monkeypatch.delenv("QUADLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("QUADLAB_THREADS", env)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        assert experiments._worker_count() == expected


class TestCli:
    def test_simulate_fit_eval_pipeline(self, tmp_path):
        reg = tmp_path / "reg.csv"
        assert main(["simulate", "--kind", "regression", "--n", "200", "--seed", "3",
                     "--output", str(reg)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", "--method", "quantile", "--alpha", "0.6",
                     "--input", str(reg), "--target", "y", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "quantile"
        assert len(payload["coefficients"]) == 1
        ev = tmp_path / "ev.json"
        assert main(["eval", "--family", "mean_l1", "--input", str(reg),
                     "--column", "y", "--output", str(ev)]) == 0
        corners = json.loads(ev.read_text())
        assert corners["risk"] - corners["deviation"] == pytest.approx(
            corners["statistic"], abs=1e-9)

    def test_portfolio_command(self, tmp_path):
        rets = tmp_path / "r.csv"
        assert main(["simulate", "--kind", "returns", "--n", "300", "--seed", "8",
                     "--output", str(rets)]) == 0
        out = tmp_path / "p.json"
        assert main(["portfolio", "--objective", "cvar", "--alpha", "0.8",
                     "--mu", "0.0012", "--input", str(rets), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert sum(payload["weights"].values()) == pytest.approx(1.0, abs=1e-7)

    def test_all_error_sweep_writes_strict_json(self, tmp_path):
        rets = tmp_path / "r.csv"
        main(["simulate", "--kind", "returns", "--n", "400", "--seed", "1",
              "--output", str(rets)])
        out = tmp_path / "sweep.json"
        # a target mean no long-only portfolio reaches: every point fails
        assert main(["portfolio", "--long-only", "--mu", "0.05", "--input", str(rets),
                     "--sweep", "0:0.01:0.005", "--output", str(out)]) == 0
        payload = _strict_json(out.read_text())
        assert [row[1:] for row in payload["rows"]] == [[None] * 5] * 3
        assert all("unattainable" in e for e in payload["errors"])

    def test_simulate_regression_is_the_convergence_draw(self, tmp_path):
        out = tmp_path / "reg.csv"
        for n, seed, shape in ((200, 3, 10.0), (1, 9, -2.5)):
            assert main(["simulate", "--kind", "regression", "--n", str(n), "--seed", str(seed),
                         "--shape", str(shape), "--output", str(out)]) == 0
            data = convergence_dataset(n, seed, shape)
            header, matrix = load_csv(str(out))
            assert header == ["x", "y"]
            assert np.array_equal(matrix, np.column_stack((data.design, data.response)))

    def test_portfolio_sweep_csv(self, tmp_path):
        rets = tmp_path / "r.csv"
        main(["simulate", "--kind", "returns", "--n", "400", "--seed", "8",
              "--output", str(rets)])
        out = tmp_path / "sweep.csv"
        assert main(["portfolio", "--mu", "0.0012", "--input", str(rets),
                     "--sweep", "0:0.004:0.002", "--format", "csv",
                     "--output", str(out)]) == 0
        header, matrix = load_csv(str(out))
        assert header[0] == "x" and matrix.shape[0] == 3

    def test_sparse_command(self, tmp_path, rng):
        x = rng.standard_normal((40, 4))
        y = 2.0 * x[:, 2] + 0.01 * rng.standard_normal(40)
        data = np.column_stack((x, y))
        src = tmp_path / "s.csv"
        write_csv(str(src), ["a", "b", "c", "d", "y"], data)
        out = tmp_path / "sp.json"
        assert main(["sparse", "--error", "se", "--k", "1", "--input", str(src),
                     "--target", "y", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["support"] == [2]

    def test_sparse_milp_command(self, tmp_path, rng):
        x = rng.standard_normal((40, 4))
        y = 2.0 * x[:, 2] + 0.01 * rng.standard_normal(40)
        src = tmp_path / "s.csv"
        write_csv(str(src), ["a", "b", "c", "d", "y"], np.column_stack((x, y)))
        payloads = []
        for extra in ([], ["--milp"], ["--milp", "--big-m", "0.5"]):
            out = tmp_path / "sp.json"
            assert main(["sparse", "--error", "se", "--k", "1", "--input", str(src),
                         "--target", "y", "--output", str(out), *extra]) == 0
            payloads.append(json.loads(out.read_text()))
        assert [p["support"] for p in payloads] == [[2], [2], [2]]
        assert payloads[1]["objective"] == pytest.approx(payloads[0]["objective"], abs=1e-8)
        assert [p["big_m_active"] for p in payloads] == [False, False, True]

    def test_experiment_command_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "table2_pattern", "seed": 99}))
        rc = main(["experiment", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table2_pattern.csv").exists()
        assert (tmp_path / "table2_pattern.json").exists()

    def test_experiment_creates_missing_output_dir(self, tmp_path):
        out = tmp_path / "missing" / "nested"
        assert main(["experiment", "--id", "table2_pattern", "--output-dir", str(out)]) == 0
        assert (out / "table2_pattern.csv").exists() and (out / "table2_pattern.json").exists()

    def test_unmakeable_output_dir_exits_2_before_the_study(self, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_experiment", never)
        (tmp_path / "file").write_text("")
        rc = main(["experiment", "--id", "sparse_recovery",
                   "--output-dir", str(tmp_path / "file" / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sweep_experiment_prints_cvar_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "fig1_sweep", "seed": 3,
                                   "sample_sizes": [400], "x_grid": [0.0, 0.004]}))
        main(["experiment", "--config", str(cfg), "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "fig1_sweep.json").read_text())
        diagnostics = report["metadata"]["diagnostics"]
        assert f"fig1_sweep.cvar_iterations: {diagnostics['cvar_iterations']}\n" in out
        assert ("fig1_sweep.cvar_kept_se_weights_points: "
                f"{diagnostics['cvar_kept_se_weights_points']}\n") in out
        for key in ("lp_dual_iterations", "lp_phase1_iterations", "lp_phase2_iterations",
                    "lp_bound_flips"):
            assert f"fig1_sweep.{key}: {diagnostics[key]}\n" in out
        # the tail-average crossover starts are primal infeasible box duals
        assert diagnostics["lp_dual_iterations"] > 0

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "fig1_sweep", "sedd": 3}, "unknown config keys: sedd"),
        ([1, 2], "JSON object"),
        ({"experiment": "fig1_sweep", "sample_sizes": 5}, "'sample_sizes' must be a list"),
        ({"seed": 3}, "needs an 'experiment' key"),
        ({"experiment": "fig1_sweep", "replications": "a"}, "'replications' must be an integer"),
        ({"experiment": "tables345", "sample_sizes": ["a"]},
         "'sample_sizes' element must be an integer"),
        ({"experiment": "fig1_sweep", "seed": "x"}, "'seed' must be an integer"),
        ({"experiment": "sparse_recovery", "k_star": 0}, "need 1 <= k_star <= dimension"),
        ({"experiment": "sparse_recovery", "k_star": 5, "dimension": 4},
         "need 1 <= k_star <= dimension"),
        ({"experiment": "sparse_recovery", "max_nodes": 0},
         "max_nodes >= 1, time_limit_s > 0"),
        ({"experiment": "sparse_recovery", "time_limit_s": 0.0},
         "max_nodes >= 1, time_limit_s > 0"),
        ({"experiment": "fig1_sweep", "x_grid": [float("nan")]},
         "'x_grid' element must be a finite number, got nan"),
        ({"experiment": "tables345", "shape": float("inf")},
         "'shape' must be a finite number, got inf"),
        ({"experiment": "fig1_sweep", "replications": -3}, "replications must be >= 0"),
    ], ids=["unknown_key", "array", "non_list_sample_sizes", "no_experiment",
            "string_replications", "string_sample_size", "string_seed", "zero_k_star",
            "k_star_above_dimension", "zero_max_nodes", "zero_time_limit", "nan_x_grid",
            "infinite_shape", "negative_replications"])
    def test_bad_config_exits_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["experiment", "--config", str(cfg), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_bad_input_reports_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        rc = main(["fit", "--method", "ols", "--input", str(missing), "--target", "y"])
        assert rc == 2

    def test_unattainable_target_reports_error(self, tmp_path, capsys):
        rets = tmp_path / "rets.csv"
        assert main(["simulate", "--kind", "returns", "--n", "200", "--seed", "8",
                     "--output", str(rets)]) == 0
        capsys.readouterr()
        rc = main(["portfolio", "--mu", "5", "--long-only", "--input", str(rets)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unattainable" in err

    def test_quantile_level_too_close_to_one_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(50)
        data = tmp_path / "reg.csv"
        write_csv(str(data), [f"x{j}" for j in range(6)] + ["y"],
                  np.column_stack((rng.standard_normal((3, 6)), rng.standard_normal(3))))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--method", "quantile", "--alpha", repr(1 - 2**-53), "--input",
                   str(data), "--target", "y", "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: alpha must be at most 0.999999") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--method", "quantile", "--input", "{reg}", "--target", "y"], "--alpha"),
        (["eval", "--family", "quantile", "--input", "{reg}"], "--alpha"),
        (["eval", "--family", "mean_l1", "--input", "{reg}", "--column", "z"], "'z' not found"),
        (["portfolio", "--objective", "cvar", "--mu", "0.001", "--input", "{rets}"], "--alpha"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "0:1"], "x0:x1:step"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "0:1:0"], "step > 0"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "0:0.002:0.001",
          "--format", "csv"], "--output"),
        (["experiment", "--id", "sparse_recovery", "--config", "{cfg}"], "disagrees"),
        (["experiment"], "--id or --config"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--big-m", "5"], "--milp"),
        (["sparse", "--error", "mse", "--k", "1", "--input", "{reg}", "--target", "y",
          "--milp"], "--error se"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--milp", "--oracle"], "not both"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "0:1:1e-15"],
         "10,000 steps"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--max-nodes", "-3"], "node budget"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--time-limit", "-1"], "time limit"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--time-limit", "nan"], "time limit"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--gap", "nan"], "gap tolerance"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--milp", "--big-m", "nan"], "big-M must be finite and positive"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{reg}", "--target", "y",
          "--milp", "--big-m", "inf"], "big-M must be finite and positive"),
        *((["simulate", "--kind", kind, "--n", n, "--output", "{out}"], "n must be >= 1")
          for kind in ("skewnormal", "design", "regression", "returns", "factors")
          for n in ("0", "-3")),
        # data errors: a header-only CSV, non-finite values and parameters
        (["eval", "--family", "mean_l1", "--input", "{header}"], "need a header row"),
        (["eval", "--family", "mean_l1", "--input", "{nan}", "--column", "x"],
         "values must be finite"),
        (["eval", "--family", "mean_l1", "--input", "{inf}", "--column", "y"],
         "values must be finite"),
        (["eval", "--family", "biased_mean", "--x", "nan", "--input", "{reg}"],
         "bias must be finite"),
        (["eval", "--family", "quantile", "--alpha", "1.5", "--input", "{reg}"],
         "alpha must lie in [0, 1]"),
        (["fit", "--method", "se", "--input", "{nan}", "--target", "y"], "data must be finite"),
        (["fit", "--method", "ols", "--input", "{nan}", "--target", "y"], "data must be finite"),
        (["fit", "--method", "quantile", "--alpha", "0.5", "--input", "{inf}", "--target", "y"],
         "data must be finite"),
        (["sparse", "--error", "se", "--k", "1", "--input", "{nan}", "--target", "y"],
         "data must be finite"),
        (["portfolio", "--mu", "0.001", "--input", "{nan}"], "returns must be finite"),
        (["fit", "--method", "bmr", "--input", "{nan}", "--target", "y"], "data must be finite"),
        (["fit", "--method", "bmr", "--x", "nan", "--input", "{reg}", "--target", "y"],
         "bias must be finite"),
        (["portfolio", "--objective", "cvar", "--alpha", "1.5", "--mu", "0.001", "--input",
          "{rets}"], "alpha must lie in [0, 1]"),
        (["portfolio", "--long-only", "--mu", "0.001", "--input", "{nan}"],
         "returns must be finite"),
        *((["sparse", "--error", "se", "--k", "1", "--input", "{nan}", "--target", "y", flag],
           "data must be finite") for flag in ("--milp", "--oracle")),
        (["sparse", "--error", "se", "--k", "5", "--input", "{wide}", "--target", "y",
          "--oracle"], "cardinality bound"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "1e300:-1e300:1e-300"],
         "--sweep wants x0 <= x1"),
        (["portfolio", "--mu", "0.001", "--input", "{rets}", "--sweep", "0.01:0:0.001"],
         "--sweep wants x0 <= x1"),
    ])
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv, message):
        paths = {name: tmp_path / f"{name}.csv" for name in ("reg", "wide", "rets", "out",
                                                              "header", "nan", "inf")}
        paths["cfg"] = tmp_path / "cfg.json"
        write_csv(str(paths["reg"]), ["x", "y"], np.array([[0.0, 1.0], [1.0, 2.5], [2.0, 2.9]]))
        write_csv(str(paths["wide"]), ["a", "b", "y"],
                  np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.5], [2.0, 1.0, 2.9], [3.0, 0.0, 4.0]]))
        write_csv(str(paths["rets"]), ["a", "b"], np.array([[0.01, 0.0], [-0.01, 0.02]]))
        paths["header"].write_text("x,y\n")
        paths["nan"].write_text("x,y\n0,1\nnan,2\n2,3\n")
        paths["inf"].write_text("x,y\n0,1\n1,inf\n2,3\n")
        paths["cfg"].write_text(json.dumps({"experiment": "table2_pattern", "seed": 1}))
        rc = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
