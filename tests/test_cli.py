import json

import numpy as np
import pytest

from tvconsensus import ac_critical_lambda, complete_graph
from tvconsensus.cli import main
from tvconsensus.config import load_config
from tvconsensus.harness import run_experiment


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
        assert main(["dualnorm", "--graph", str(gpath), "--field", str(upath)]) == 1
        capsys.readouterr()

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
        assert "subgradient engine: the state left the finite range at step 1" in err
        out = tmp_path / "out"
        assert not (out / "huge_subgradient.csv").exists()
        assert not (out / "huge_summary.json").exists()
        for path in out.rglob("*"):
            text = path.read_text().lower()
            assert "inf" not in text and "nan" not in text

    def test_failure_in_a_later_engine_writes_no_file(self, tmp_path, capsys):
        # ADMM finishes, then the subgradient engine overflows at step 1.
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
        assert "subgradient engine: the state left the finite range" in capsys.readouterr().err
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
        assert result.summary["stubborn_analysis"]["prediction"]["lambda_ok"] is lambda_ok
        # The regular level on K8, plus the median pattern level on K9 for absolute objectives.
        assert sorted(calls) == ([8] if kind == "quadratic" else [8, 9])
