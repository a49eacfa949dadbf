import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tvconsensus import ConfigError, ac_critical_lambda, complete_graph
from tvconsensus.cli import main
from tvconsensus.config import load_config, parse_config
from tvconsensus.harness import _median, run_experiment


def write_field(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


AC_CONFIG = """
graph: {{generator: complete, n: 8}}
objective:
  kind: quadratic
  data: {{source: uniform, seed: 11}}
lambda: {{multiplier: 1.5}}
engines:
  - name: admm
    rho: 1.0
    max_iterations: 3000
  - name: subgradient
    max_iterations: 500
    record_every: 100
output: {{directory: {outdir}, prefix: ac_demo}}
"""


class TestSubcommands:
    def test_gen_graph_and_dualnorm(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        assert main(["gen-graph", "complete", "--n", "4", "-o", str(gpath)]) == 0
        upath = tmp_path / "u.txt"
        write_field(upath, [3.0, -1.0, -1.0, -1.0])
        assert main(["dualnorm", "--graph", str(gpath), "--field", str(upath)]) == 0
        out = capsys.readouterr().out
        assert "dual_norm = 1" in out
        assert "witness = [0]" in out

    def test_critical_lambda(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "2", "-o", str(gpath)])
        xpath = tmp_path / "x.txt"
        write_field(xpath, [0.0, 2.0])
        assert main(["critical-lambda", "--graph", str(gpath), "--field", str(xpath)]) == 0
        assert "critical_lambda = 1" in capsys.readouterr().out

    def test_certify(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "2", "-o", str(gpath)])
        xpath = tmp_path / "x.txt"
        write_field(xpath, [0.0, 2.0])
        assert (
            main(
                [
                    "certify", "--graph", str(gpath), "--x0", str(xpath),
                    "--kind", "quadratic", "--x-star", "1.0", "--lam", "1.0",
                ]
            )
            == 0
        )
        assert "verdict = certified" in capsys.readouterr().out

    def test_certify_prints_a_failed_mean_test(self, tmp_path, capsys):
        # x* = 5 is no consensus minimizer of the quadratic on [0, 2]: u = [5, 3] has mean 4.
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "2", "-o", str(gpath)])
        xpath = tmp_path / "x.txt"
        write_field(xpath, [0.0, 2.0])
        capsys.readouterr()
        assert main(["certify", "--graph", str(gpath), "--x0", str(xpath), "--kind", "quadratic",
                     "--x-star", "5.0", "--lam", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "verdict = violated" in out
        assert "dual_gap = inf" in out

    def test_predict_stubborn(self, tmp_path, capsys):
        xpath = tmp_path / "x0r.txt"
        write_field(xpath, [0.1284] * 4)
        code = main(
            ["predict-stubborn", "--x0r", str(xpath), "--a", "10", "--lam", "0.05",
             "--s-count", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x_star = 0.1784" in out
        assert "case = clipped_high" in out

    def test_predict_stubborn_checks_lambda_on_the_regular_graph(self, tmp_path, capsys):
        xpath, gpath = tmp_path / "x0r.txt", tmp_path / "g.txt"
        write_field(xpath, [0.0, 1.0, 0.5])
        main(["gen-graph", "complete", "--n", "3", "-o", str(gpath)])
        capsys.readouterr()
        args = ["predict-stubborn", "--x0r", str(xpath), "--a", "10", "--s-count", "1",
                "--graph", str(gpath)]
        assert main(args + ["--lam", "1.0"]) == 0  # the critical level is 0.5 / 2
        assert "lambda_precondition_ok = True" in capsys.readouterr().out
        assert main(args + ["--lam", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "lambda_precondition_ok = False" in captured.out
        assert captured.err.startswith("warning: lambda is below the critical level")

    def test_predict_stubborn_rejects_a_graph_of_another_size(self, tmp_path, capsys):
        xpath, gpath = tmp_path / "x0r.txt", tmp_path / "g.txt"
        write_field(xpath, [0.1, 0.2, 0.3])
        main(["gen-graph", "complete", "--n", "4", "-o", str(gpath)])
        capsys.readouterr()
        code = main(["predict-stubborn", "--x0r", str(xpath), "--a", "10", "--lam", "0.05",
                     "--s-count", "1", "--graph", str(gpath)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: node field must have length 4")

    def test_predict_stubborn_rejects_non_finite_data(self, tmp_path, capsys):
        for values, a in (([0.1, float("nan"), 0.2], "10"), ([0.1, float("inf")], "10"),
                          ([0.1, 0.2], "inf"), ([0.1, 0.2], "nan")):
            xpath = tmp_path / "x0r.txt"
            write_field(xpath, values)
            code = main(["predict-stubborn", "--x0r", str(xpath), "--a", a, "--lam", "0.05",
                         "--s-count", "1"])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_predict_stubborn_rejects_infinite_lambda(self, tmp_path, capsys):
        xpath = tmp_path / "x0r.txt"
        write_field(xpath, [0.1, 0.2])
        code = main(["predict-stubborn", "--x0r", str(xpath), "--a", "10", "--lam", "inf",
                     "--s-count", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: lam must be positive and finite")

    @pytest.mark.parametrize("text, message", [
        ("0.1 0.2 0.3\n", "expected a number"),  # one line holding three values
        ("0.1 0.2\n0.3 0.4\n", "expected a number"),  # two columns
        ("", "need a nonempty vector"),
    ], ids=["one-line", "two-columns", "empty"])
    def test_predict_stubborn_reads_the_node_field_format(self, tmp_path, capsys, text, message):
        xpath = tmp_path / "x0r.txt"
        xpath.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict-stubborn", "--x0r", str(xpath), "--a", "10", "--lam", "0.05",
                         "--s-count", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_certify_rejects_non_finite_x_star_and_bad_lambda(self, tmp_path, capsys):
        gpath = tmp_path / "p3.txt"
        main(["gen-graph", "path", "--n", "3", "-o", str(gpath)])
        xpath = tmp_path / "x.txt"
        write_field(xpath, [0.1, 0.2, 0.3])
        capsys.readouterr()
        for kind, x_star, lam in (("absolute", "inf", "1"), ("absolute", "nan", "1"),
                                  ("quadratic", "100", "-1"), ("quadratic", "0.2", "-1"),
                                  ("quadratic", "0.2", "inf")):
            code = main(["certify", "--graph", str(gpath), "--x0", str(xpath), "--kind", kind,
                         "--x-star", x_star, "--lam", lam])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_validation_failures_exit_1(self, tmp_path, capsys):
        assert main(["dualnorm", "--graph", "/nonexistent", "--field", "/nope"]) == 1
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "3", "-o", str(gpath)])
        upath = tmp_path / "u.txt"
        write_field(upath, [1.0, -1.0])  # wrong length
        capsys.readouterr()
        assert main(["dualnorm", "--graph", str(gpath), "--field", str(upath)]) == 1
        assert "node field must have length 3, got shape (2,)" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1 1\n", ":2: self-loop at vertex 1 is not allowed"),
        ("0 1\n1 2\n2 1\n", ":3: duplicate edge (1, 2), first on line 2"),
    ], ids=["self-loop", "duplicate"])
    def test_a_bad_edge_names_its_line(self, tmp_path, capsys, text, message):
        gpath, upath = tmp_path / "g.txt", tmp_path / "u.txt"
        gpath.write_text(text)
        write_field(upath, [1.0, -1.0, 0.0])
        assert main(["dualnorm", "--graph", str(gpath), "--field", str(upath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gpath}{message}\n"

    @pytest.mark.parametrize("command, prefix", [
        (["run", "{bad}"], "cannot read {bad}: "),
        (["dualnorm", "--graph", "{bad}", "--field", "{field}"], "{bad}: not UTF-8 text: "),
        (["dualnorm", "--graph", "{graph}", "--field", "{bad}"], "{bad}: not UTF-8 text: "),
    ], ids=["config", "edge list", "node field"])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys, command, prefix):
        paths = {"bad": tmp_path / "bad.txt", "graph": tmp_path / "g.txt",
                 "field": tmp_path / "u.txt"}
        paths["bad"].write_bytes(b"0 1\n\xff\n")
        paths["graph"].write_text("0 1\n")
        write_field(paths["field"], [1.0, -1.0])
        assert main([part.format(**paths) for part in command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + prefix.format(**paths))
        assert "can't decode byte 0xff" in captured.err

    def test_malformed_yaml_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out") + "lambda: [unclosed\n")
        assert main(["run", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot parse {cfg_path}: ")
        assert not (tmp_path / "out").exists()

    def test_runtime_anomaly_exits_2(self, tmp_path, capsys, monkeypatch):
        from tvconsensus import IterationAnomalyError
        import tvconsensus.cli as cli

        def boom(path):
            raise IterationAnomalyError("iteration bound exceeded")

        monkeypatch.setattr(cli, "load_config", boom)
        assert main(["run", "whatever.yaml"]) == 2
        assert "anomaly" in capsys.readouterr().err

    def test_critical_lambda_anomaly_exits_2(self, tmp_path, capsys, monkeypatch):
        from tvconsensus import DualNormResult, analysis

        def cut_off(g, u):
            return DualNormResult(1.0, frozenset({0}), iterations=1, anomaly=True)

        monkeypatch.setattr(analysis, "dual_norm_algorithm0", cut_off)
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "2", "-o", str(gpath)])
        xpath = tmp_path / "x.txt"
        write_field(xpath, [0.0, 2.0])
        capsys.readouterr()
        assert main(["critical-lambda", "--graph", str(gpath), "--field", str(xpath)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("anomaly: ")

    def test_dualnorm_anomaly_exits_2(self, tmp_path, capsys, monkeypatch):
        from tvconsensus import DualNormResult
        import tvconsensus.cli as cli

        def cut_off(g, u):
            return DualNormResult(1.0, frozenset({0}), iterations=1, anomaly=True)

        monkeypatch.setattr(cli, "dual_norm_algorithm0", cut_off)
        gpath = tmp_path / "g.txt"
        main(["gen-graph", "path", "--n", "2", "-o", str(gpath)])
        upath = tmp_path / "u.txt"
        write_field(upath, [1.0, -1.0])
        capsys.readouterr()
        assert main(["dualnorm", "--graph", str(gpath), "--field", str(upath)]) == 2
        captured = capsys.readouterr()
        assert "dual_norm =" not in captured.out
        assert captured.err.startswith("anomaly: ")

    def test_gen_graph_validates_the_seed(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        argv = ["gen-graph", "erdos_renyi", "--n", "5", "--p", "0.5", "--seed", "-1"]
        assert main(argv + ["-o", str(gpath)]) == 1
        assert capsys.readouterr().err == "error: gen-graph.seed: must be nonnegative\n"
        assert not gpath.exists()

    @pytest.mark.parametrize("argv, vertex", [
        (["erdos_renyi", "--n", "20", "--p", "0.1", "--seed", "20"], 19),
        (["path", "--n", "1"], 0),
    ])
    def test_gen_graph_refuses_what_an_edge_list_cannot_carry(self, tmp_path, capsys, argv, vertex):
        gpath = tmp_path / "g.txt"
        assert main(["gen-graph", *argv, "-o", str(gpath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: vertex {vertex} has no edges")
        assert not gpath.exists()


class TestRunExperiment:
    def test_end_to_end_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out
        summary = json.loads((tmp_path / "out" / "ac_demo_summary.json").read_text())
        assert summary["lambda"]["classification"] == "supercritical"
        assert summary["certificate"]["verdict"] == "certified"
        assert summary["engines"]["admm"]["converged"]
        csv_text = (tmp_path / "out" / "ac_demo_admm.csv").read_text()
        assert csv_text.startswith("iter,disagreement_log,mean,objective,max_change\n")

    def test_median_matches_numpy_bitwise(self):
        rng = np.random.default_rng(8)
        arrays = [np.array([v]) for v in (0.0, -0.0, 2.5)]
        arrays += [np.array([0.0, -0.0]), np.array([-0.0, 0.0, 1.0]), np.array([1e308, 1e308])]
        for n in (2, 3, 4, 7, 8, 99, 100):
            arrays.append(rng.normal(size=n))
            ties = np.round(rng.normal(size=n))  # whole numbers tie, some at +-0.0
            ties[rng.random(n) < 0.3] *= -0.0
            arrays.append(ties)
        for x in arrays:
            with np.errstate(over="ignore"):  # both overflow to inf on 1e308 + 1e308
                got, want = _median(x), float(np.median(x))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x

    def test_a_run_does_not_import_numpy_ma(self, tmp_path):
        # np.median's NaN check imports numpy.ma, about 1 MB resident, on first use.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out")
                            .replace("kind: quadratic", "kind: absolute"))
        script = ("import sys\n"
                  "from tvconsensus.config import load_config\n"
                  "from tvconsensus.harness import run_experiment\n"
                  f"run_experiment(load_config({str(cfg_path)!r}))\n"
                  "assert 'numpy.ma' not in sys.modules\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        assert json.loads((tmp_path / "out" / "ac_demo_summary.json").read_text())["certificate"]

    def test_replay_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for outdir in (out1, out2):
            cfg_path = tmp_path / f"cfg_{outdir.name}.yaml"
            cfg_path.write_text(AC_CONFIG.format(outdir=outdir))
            result = run_experiment(load_config(str(cfg_path)))
            assert result.csv_paths
        for name in ("ac_demo_admm.csv", "ac_demo_subgradient.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stubborn_scenario_summary(self, tmp_path):
        cfg_path = tmp_path / "stub.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 9}}
objective:
  kind: quadratic
  data: {{source: uniform, seed: 5}}
lambda: {{value: 0.2}}
engines:
  - name: admm
    max_iterations: 20000
    disagreement_tol: -1
    change_tol: 1.0e-13
  - name: gossip
    max_iterations: 20000
output: {{directory: {tmp_path / "out"}, prefix: stub}}
stubborn:
  vertices: [8]
  values: [5.0]
"""
        )
        result = run_experiment(load_config(str(cfg_path)))
        block = result.summary["stubborn_analysis"]
        assert block["scenario1"] is True
        assert block["prediction"]["case"] in ("clipped_high", "pulled_to_a", "clipped_low")
        err = block["prediction_error"]["admm"]
        assert err <= 1e-4
        # gossip is fully captured by the lone stubborn agent
        assert np.isclose(
            result.trajectories["gossip"].final_x.mean(), 5.0, atol=1e-6
        )

    def test_invalid_stubborn_vertex_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 4}}
objective:
  kind: quadratic
  data: {{source: uniform, seed: 5}}
lambda: {{value: 0.2}}
engines: [{{name: admm}}]
stubborn: {{vertices: [9], values: [1.0]}}
output: {{directory: {tmp_path / "out"}, prefix: bad}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1

    def test_duplicate_stubborn_vertices_are_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "dup.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out")
                            + "stubborn: {vertices: [0, 0], values: [1, 1]}\n")
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: stubborn.vertices: duplicate stubborn vertex ids\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["quadratic", "absolute"])
    @pytest.mark.parametrize("values", [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    def test_pinning_every_vertex_is_a_config_error(self, tmp_path, capsys, kind, values):
        cfg_path = tmp_path / "all.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 3}}
objective: {{kind: {kind}}}
lambda: {{value: 0.2}}
engines: [{{name: admm}}]
stubborn: {{vertices: [0, 1, 2], values: {values}}}
output: {{directory: {tmp_path / "out"}, prefix: all}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: stubborn.vertices: at least one vertex must stay regular\n")
        assert not (tmp_path / "out").exists()

    def test_median_run_reaches_median(self, tmp_path):
        cfg_path = tmp_path / "mc.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 9}}
objective:
  kind: absolute
  data: {{source: uniform, seed: 21, outliers: [{{vertex: 0, value: 4.0}}]}}
lambda: {{value: 0.5}}
engines:
  - name: admm
    max_iterations: 30000
    disagreement_tol: -1
    change_tol: 1.0e-12
output: {{directory: {tmp_path / "out"}, prefix: mc}}
"""
        )
        result = run_experiment(load_config(str(cfg_path)))
        median = result.summary["initial"]["median"]
        final = result.trajectories["admm"].final_x
        assert np.abs(final - median).max() <= 1e-4
        assert result.summary["lambda"]["classification"] == "supercritical"

    def test_large_offset_data_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "offset.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 30}}
objective:
  kind: quadratic
  data: {{source: uniform, seed: 11, low: 1000000.0, high: 1000001.0}}
lambda: {{multiplier: 1.5}}
engines: [{{name: admm, max_iterations: 200}}]
output: {{directory: {tmp_path / "out"}, prefix: offset}}
"""
        )
        assert main(["run", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "offset_summary.json").read_text())
        unshifted = ac_critical_lambda(
            complete_graph(30), np.random.default_rng(11).uniform(0.0, 1.0, 30)
        )
        assert np.isclose(summary["lambda"]["critical_lambda"], unshifted, rtol=1e-9, atol=0.0)

    def test_misspelled_key_is_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "typo.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 5}}
objective: {{kind: quadratic, data: {{source: uniform, seed: 1}}}}
lambda: {{value: 0.5}}
engines: [{{name: admm, max_iteration: 3}}]
output: {{directory: {tmp_path / "out"}, prefix: typo}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        assert "engines[0].max_iteration: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, extra, path", [
        ("{source: uniform, seed: 11, high: .inf}", "", "objective.data.high"),
        ("{source: uniform, seed: 11, high: .nan}", "", "objective.data.high"),
        ("{source: explicit, values: [0, .inf, 1, 2, 3, 4, 5, 6]}", "",
         "objective.data.values[1]"),
        ("{source: uniform, seed: 11}", "stubborn: {vertices: [0], values: [.inf]}",
         "stubborn.values[0]"),
    ], ids=["high_inf", "high_nan", "values_inf", "stubborn_inf"])
    def test_non_finite_data_is_a_config_error(self, tmp_path, capsys, data, extra, path):
        cfg_path = tmp_path / "data.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out").replace(
            "{source: uniform, seed: 11}", data) + extra + "\n")
        assert main(["run", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_lambda_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "inf.yaml"
        cfg_path.write_text(AC_CONFIG.format(outdir=tmp_path / "out").replace(
            "{multiplier: 1.5}", "{value: .inf}"))
        assert main(["run", str(cfg_path)]) == 1
        assert "lambda.value: must be positive and finite" in capsys.readouterr().err

    def test_lambda_resolving_to_infinity_is_a_config_error(self, tmp_path, capsys,
                                                            monkeypatch):
        from tvconsensus import AdmmEngine, SubgradientEngine

        steps = []
        for engine in (AdmmEngine, SubgradientEngine):
            def counted(self, x, _inner=engine.step):
                steps.append(self.name)
                return _inner(self, x)

            monkeypatch.setattr(engine, "step", counted)
        out = tmp_path / "out"
        cfg_path = tmp_path / "huge.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: complete, n: 8}}
objective: {{kind: quadratic, data: {{source: uniform, seed: 3, low: 0.0, high: 1000.0}}}}
lambda: {{multiplier: 1.0e+308}}
engines: [{{name: admm, max_iterations: 50}}, {{name: subgradient, max_iterations: 50}}]
output: {{directory: {out}, prefix: huge}}
stubborn: {{vertices: [0], values: [5.0]}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: lambda: ")
        assert steps == []
        assert not out.exists()


    def test_disconnected_graph_fails_before_any_engine_step(self, tmp_path, capsys,
                                                              monkeypatch):
        from tvconsensus import AdmmEngine

        steps = []

        def counted(self, x, _inner=AdmmEngine.step):
            steps.append(1)
            return _inner(self, x)

        monkeypatch.setattr(AdmmEngine, "step", counted)
        gpath = tmp_path / "two_triangles.txt"
        gpath.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        cfg_path = tmp_path / "disconnected.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: edgelist, path: {gpath}}}
objective: {{kind: absolute, data: {{source: uniform, seed: 1}}}}
lambda: {{value: 0.5}}
engines: [{{name: admm, max_iterations: 50000}}]
output: {{directory: {tmp_path / "out"}, prefix: p}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        assert "certificates need a connected graph" in capsys.readouterr().err
        assert steps == []
        assert list(tmp_path.rglob("*.csv")) == []

    def test_non_finite_state_is_a_typed_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: path, n: 4}}
objective: {{kind: quadratic, data: {{source: uniform, seed: 1}}}}
lambda: {{value: 1.0e+300}}
engines: [{{name: admm, max_iterations: 20}}, {{name: subgradient, max_iterations: 20}}]
output: {{directory: {tmp_path / "out"}, prefix: huge}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "subgradient engine: the row metrics at step 1 left the finite range" in err
        out = tmp_path / "out"
        assert not (out / "huge_subgradient.csv").exists()
        assert not (out / "huge_summary.json").exists()
        for path in out.rglob("*"):
            text = path.read_text().lower()
            assert "inf" not in text and "nan" not in text

    def test_failure_in_a_later_engine_writes_no_file(self, tmp_path, capsys):
        # ADMM finishes, then the subgradient engine's row at step 1 overflows.
        out = tmp_path / "out"
        cfg_path = tmp_path / "huge.yaml"
        cfg_path.write_text(
            f"""
graph: {{generator: path, n: 4}}
objective: {{kind: quadratic, data: {{source: explicit, values: [0, 1, 2, 3]}}}}
lambda: {{value: 1.0e+300}}
engines: [{{name: admm}}, {{name: subgradient}}]
output: {{directory: {out}, prefix: huge}}
"""
        )
        assert main(["run", str(cfg_path)]) == 1
        assert "subgradient engine: the row metrics at step 1" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


class TestStubbornLevel:
    """The regular agents' critical level is computed once and serves lambda_ok too."""

    CONFIG = """
graph: {{generator: complete, n: 9}}
objective:
  kind: {kind}
  data: {{source: uniform, seed: 5}}
lambda: {{value: {lam}}}
engines: [{{name: admm, max_iterations: 50}}]
output: {{directory: {outdir}, prefix: stub}}
stubborn: {{vertices: [8], values: [5.0]}}
"""

    @pytest.mark.parametrize("kind, lam, lambda_ok", [
        ("quadratic", 0.2, True), ("quadratic", 0.01, False),
        ("absolute", 0.2, True), ("absolute", 0.01, False),
    ])
    def test_one_dual_norm_per_level(self, tmp_path, monkeypatch, kind, lam, lambda_ok):
        import tvconsensus.analysis as analysis
        import tvconsensus.harness as harness

        x0 = np.random.default_rng(5).uniform(0.0, 1.0, 9)[:8]
        assert (lam >= ac_critical_lambda(complete_graph(8), x0)) is lambda_ok
        calls = []
        for module in (harness, analysis):
            def counted(g, u, _inner=module.dual_norm_algorithm0):
                calls.append(g.n_vertices)
                return _inner(g, u)

            monkeypatch.setattr(module, "dual_norm_algorithm0", counted)
        cfg_path = tmp_path / "stub.yaml"
        cfg_path.write_text(self.CONFIG.format(kind=kind, lam=lam, outdir=tmp_path / "out"))
        result = run_experiment(load_config(str(cfg_path)))
        block = result.summary["stubborn_analysis"]
        if kind == "quadratic":
            assert block["prediction"]["lambda_ok"] is lambda_ok
            # One dual norm, on the regular agents' K8, serves the classification and lambda_ok.
            assert calls == [8]
        else:
            # The closed form solves the quadratic energy only; the median level on K9
            # is a closed form, so an absolute run needs no dual norm.
            assert "prediction" not in block
            assert calls == []

    @staticmethod
    def pinned_config(tmp_path, graph, vertices, values, lam):
        return parse_config({
            "graph": graph,
            "objective": {"kind": "quadratic", "data": {"source": "uniform", "seed": 5}},
            "lambda": lam,
            "engines": [{"name": "admm", "max_iterations": 20}],
            "output": {"directory": str(tmp_path), "prefix": "pins"},
            "stubborn": {"vertices": vertices, "values": values},
        })

    def test_pins_that_disconnect_the_regular_agents_give_no_level(self, tmp_path, monkeypatch):
        import tvconsensus.harness as harness

        monkeypatch.setattr(harness, "dual_norm_algorithm0", None)  # must not be called
        path3 = {"generator": "path", "n": 3}
        result = run_experiment(self.pinned_config(tmp_path, path3, [1], [5.0], {"value": 0.5}))
        assert result.summary["lambda"]["critical_lambda"] is None
        assert result.summary["lambda"]["classification"] is None
        block = result.summary["stubborn_analysis"]
        assert block["scenario1"] is True
        assert block["prediction"]["lambda_ok"] is None
        with pytest.raises(ConfigError, match="^lambda.multiplier: no positive reference level"):
            run_experiment(self.pinned_config(tmp_path, path3, [1], [5.0], {"multiplier": 2.0}))

    @pytest.mark.parametrize("graph, vertices, expected", [
        ({"generator": "path", "n": 4}, [0, 3], False),  # each pin misses one regular agent
        ({"generator": "cycle", "n": 4}, [0, 2], True),  # each pin neighbours both 1 and 3
        ({"generator": "complete", "n": 5}, [0, 1], True),  # the pins' own edge is not counted
    ])
    def test_scenario1_needs_every_pin_next_to_every_regular_agent(
        self, tmp_path, graph, vertices, expected
    ):
        cfg = self.pinned_config(tmp_path, graph, vertices, [5.0, 5.0], {"value": 0.5})
        assert run_experiment(cfg).summary["stubborn_analysis"]["scenario1"] is expected

    def test_distinct_pinned_values_get_no_prediction(self, tmp_path):
        k4 = {"generator": "complete", "n": 4}
        result = run_experiment(self.pinned_config(tmp_path, k4, [0, 1], [5.0, 6.0], {"value": 0.5}))
        assert result.summary["lambda"]["critical_lambda"] > 0.0
        assert result.summary["stubborn_analysis"] == {"scenario1": False}

    def test_absolute_run_reports_no_quadratic_prediction(self, tmp_path, monkeypatch):
        """A median run with a pinned agent does not reach the quadratic closed form
        clip(a, mean +- lambda), so the summary does not claim it."""
        import tvconsensus.harness as harness

        calls = []

        def counted(g, u, _inner=harness.dual_norm_algorithm0):
            calls.append(g.n_vertices)
            return _inner(g, u)

        monkeypatch.setattr(harness, "dual_norm_algorithm0", counted)
        cfg_path = tmp_path / "stub.yaml"
        cfg_path.write_text(
            self.CONFIG.format(kind="absolute", lam=0.2, outdir=tmp_path / "out")
            .replace("max_iterations: 50", "max_iterations: 30000")
        )
        result = run_experiment(load_config(str(cfg_path)))
        # The regular agents split instead of meeting at one value.
        assert np.ptp(result.trajectories["admm"].final_x[:8]) > 0.2
        assert result.summary["stubborn_analysis"] == {"scenario1": True}
        assert calls == []
