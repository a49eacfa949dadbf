import math
import re

import numpy as np
import pytest

from tvconsensus import (
    ConfigError,
    MetricsRow,
    StopRule,
    Trajectory,
    emit_csv,
    metrics_from_trajectory,
    parse_csv,
)
from tvconsensus.cli import build_parser
from tvconsensus.config import (
    ENGINES,
    GENERATORS,
    OBJECTIVES,
    EngineConfig,
    build_graph,
    build_initial_data,
    load_config,
    parse_config,
    reads_file,
)
from tvconsensus.metrics import CSV_HEADER, render_csv


class TestMetricsCsv:
    def test_empty_trajectory_is_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"
        assert parse_csv(str(path)) == []

    def test_single_row(self, tmp_path):
        row = MetricsRow(0, -math.inf, 0.5, 1.25, 0.0)
        path = tmp_path / "m.csv"
        emit_csv([row], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,-inf,0.5,")

    def test_round_trip_identity(self, tmp_path):
        rows = [
            MetricsRow(0, -math.inf, 0.5, 1.25, 0.0),
            MetricsRow(7, math.log(1.234e-8), -1.0 / 3.0, 2.0**-40, 3.14159e-300),
            MetricsRow(100000, 0.0, 1e308, 0.1 + 0.2, 5e-324),
        ]
        path = tmp_path / "m.csv"
        emit_csv(rows, str(path))
        assert parse_csv(str(path)) == rows

    def test_deterministic_bytes(self, tmp_path):
        rows = [MetricsRow(k, float(np.log(k + 1.5)), k * 0.1, k * 1.1, 1e-9) for k in range(50)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, str(a))
        emit_csv(rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_render_uses_17_significant_digits(self):
        rows = [MetricsRow(1, 0.1, 0.1, 0.1, 0.1)]
        out = render_csv(rows)
        assert "0.10000000000000001" in out

    def test_parse_rejects_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            parse_csv(str(path))

    def test_trajectory_path_writes_the_bytes_of_its_rows(self, tmp_path):
        traj = Trajectory(
            iterations=np.array([0, 1, 2, 3, 10**6]),
            # 0.0 is written -inf; then a subnormal, a 17-digit value and a large one.
            disagreement=np.array([0.0, 5e-324, 0.1 + 0.2, 1.0, 1e308]),
            mean=np.array([-0.0, 0.0, 1.0 / 3.0, -2.0**-1074, 123456789.01234567]),
            objective=np.array([1e-310, -0.0, 2.0 / 3.0, 1e300, 0.1]),
            max_change=np.array([0.0, 5e-324, -0.0, np.nextafter(1.0, 2.0), 3.14159e-300]),
            final_x=np.zeros(2),
            converged=False,
            n_steps=10**6,
        )
        rows = metrics_from_trajectory(traj)
        assert render_csv(traj) == render_csv(rows)
        direct, via_rows = tmp_path / "direct.csv", tmp_path / "rows.csv"
        emit_csv(traj, str(direct))
        emit_csv(rows, str(via_rows))
        assert direct.read_bytes() == via_rows.read_bytes()
        lines = direct.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,-inf,-0,9.9999999999999694e-311,0"
        assert lines[2] == "1,-744.44007192138122,0,-0,4.9406564584124654e-324"
        parsed = parse_csv(str(direct))
        assert [[repr(v) for v in vars(r).values()] for r in parsed] == [
            [repr(v) for v in vars(r).values()] for r in rows
        ]


BASE_CONFIG = {
    "graph": {"generator": "complete", "n": 5},
    "objective": {"kind": "quadratic", "data": {"source": "uniform", "seed": 3}},
    "lambda": {"value": 0.5},
    "engines": [{"name": "admm", "max_iterations": 50}],
}


def with_overrides(**sections):
    cfg = {k: (v.copy() if isinstance(v, dict) else list(v)) for k, v in BASE_CONFIG.items()}
    cfg.update(sections)
    return cfg


MALFORMED_YAML = [
    "graph: [unclosed\n",
    "graph: {generator: complete\n",
    "graph:\n  generator: complete\n n: 4\n",
    "graph: {generator: complete, n: 4}\n\tlambda: 1\n",
    "engines:\n  - name: admm\n  name: gossip\n",
]


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(with_overrides())
        assert cfg.graph.generator == "complete"
        assert cfg.graph.n == 5
        assert cfg.objective_kind == "quadratic"
        assert cfg.lam.value == 0.5
        assert cfg.engines[0].name == "admm"
        assert cfg.engines[0].max_iterations == 50
        assert cfg.engines[0].rho == 1.0  # default materialized

    def test_resolved_dict_contains_defaults(self):
        cfg = parse_config(with_overrides())
        echo = cfg.resolved_dict()
        assert echo["engines"][0]["record_every"] == 1
        assert echo["stubborn"] == {"vertices": [], "values": []}
        assert echo["data"]["low"] == 0.0

    def test_missing_section(self):
        bad = with_overrides()
        del bad["lambda"]
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(bad)

    def test_unknown_engine(self):
        bad = with_overrides(engines=[{"name": "simplex"}])
        with pytest.raises(ConfigError, match=r"engines\[0\].name"):
            parse_config(bad)

    def test_both_lambda_forms_rejected(self):
        bad = with_overrides(**{"lambda": {"value": 0.5, "multiplier": 2.0}})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(bad)

    def test_stubborn_length_mismatch(self):
        bad = with_overrides(stubborn={"vertices": [0, 1], "values": [1.0]})
        with pytest.raises(ConfigError, match="stubborn"):
            parse_config(bad)

    def test_bad_probability(self):
        bad = with_overrides(graph={"generator": "erdos_renyi", "n": 5, "p": 1.5})
        with pytest.raises(ConfigError, match=r"graph.p"):
            parse_config(bad)

    def test_yaml_loading(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "graph: {generator: cycle, n: 6}\n"
            "objective:\n  kind: absolute\n  data: {source: explicit, values: [1, 2, 3, 4, 5, 6]}\n"
            "lambda: {multiplier: 1.5}\n"
            "engines:\n  - name: subgradient\n    gamma0: 0.5\n"
            "output: {directory: outdir, prefix: demo}\n"
        )
        cfg = load_config(str(path))
        assert cfg.graph.generator == "cycle"
        assert cfg.data.values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert cfg.lam.multiplier == 1.5
        assert cfg.output_dir == "outdir"

    def test_yaml_syntax_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text in MALFORMED_YAML:
            path.write_text(text)
            with pytest.raises(ConfigError, match=f"cannot parse {re.escape(str(path))}: "):
                load_config(str(path))


class TestBuilders:
    def test_build_graph_dispatch(self):
        cfg = parse_config(with_overrides(graph={"generator": "path", "n": 4}))
        g = build_graph(cfg.graph)
        assert g.n_edges == 3

    def test_uniform_data_deterministic(self):
        cfg = parse_config(with_overrides())
        a = build_initial_data(cfg.data, 5)
        b = build_initial_data(cfg.data, 5)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_explicit_data_with_outliers(self):
        cfg = parse_config(
            with_overrides(
                objective={
                    "kind": "quadratic",
                    "data": {
                        "source": "explicit",
                        "values": [1.0, 2.0, 3.0],
                        "outliers": [{"vertex": 1, "value": 10.0}],
                    },
                }
            )
        )
        x0 = build_initial_data(cfg.data, 3)
        assert x0.tolist() == [1.0, 10.0, 3.0]

    def test_explicit_length_mismatch(self):
        cfg = parse_config(
            with_overrides(
                objective={
                    "kind": "quadratic",
                    "data": {"source": "explicit", "values": [1.0, 2.0]},
                }
            )
        )
        with pytest.raises(ConfigError, match="values"):
            build_initial_data(cfg.data, 3)


# The summary echo of BASE_CONFIG, written out by hand.
BASE_ECHO = {
    "graph": {"generator": "complete", "n": 5, "p": 0.5, "seed": 0, "path": ""},
    "objective_kind": "quadratic",
    "data": {"source": "uniform", "seed": 3, "low": 0.0, "high": 1.0, "values": [],
             "outliers": []},
    "lambda": {"value": 0.5, "multiplier": None},
    "engines": [{"name": "admm", "gamma0": 1.0, "rho": 1.0, "max_iterations": 50,
                 "disagreement_tol": 1e-9, "change_tol": 1e-10, "record_every": 1}],
    "stubborn": {"vertices": [], "values": []},
    "output_dir": "out",
    "prefix": "experiment",
}


class TestSchema:
    def test_resolved_dict_of_base_config(self):
        assert parse_config(with_overrides()).resolved_dict() == BASE_ECHO

    def test_keys_outside_their_generator_or_source_echo_defaults(self):
        cfg = parse_config(with_overrides(
            graph={"generator": "edgelist", "path": "g.txt", "n": 7, "p": 0.1, "seed": 4},
            objective={"kind": "absolute", "data": {
                "source": "explicit", "values": [1, 2], "seed": 9, "low": -1, "high": 2}},
        ))
        echo = cfg.resolved_dict()
        assert echo["graph"] == {"generator": "edgelist", "n": 0, "p": 0.5, "seed": 0,
                                 "path": "g.txt"}
        assert echo["data"] == {"source": "explicit", "seed": 0, "low": 0.0, "high": 1.0,
                                "values": [1.0, 2.0], "outliers": []}
        cfg = parse_config(with_overrides(
            graph={"generator": "cycle", "n": 6, "p": 0.25, "seed": 2, "path": "g.txt"},
            objective={"kind": "quadratic", "data": {"seed": 1, "values": [1.0]}},
        ))
        assert cfg.resolved_dict()["graph"] == {"generator": "cycle", "n": 6, "p": 0.25,
                                                "seed": 2, "path": ""}
        assert cfg.data.values == ()

    @pytest.mark.parametrize("overrides, path", [
        ({"bogus": 1}, "bogus"),
        ({"graph": {"generator": "complete", "n": 5, "size": 5}}, "graph.size"),
        ({"objective": {"kind": "quadratic", "kinds": "absolute"}}, "objective.kinds"),
        ({"objective": {"kind": "quadratic", "data": {"sed": 3}}}, "objective.data.sed"),
        ({"objective": {"kind": "quadratic", "data": {"outliers": [
            {"vertex": 0, "value": 1.0}, {"vertex": 1, "value": 2.0, "weight": 1.0}]}}},
         "objective.data.outliers[1].weight"),
        ({"lambda": {"value": 0.5, "scale": 2.0}}, "lambda.scale"),
        ({"engines": [{"name": "admm"}, {"name": "admm", "max_iteration": 3}]},
         "engines[1].max_iteration"),
        ({"stubborn": {"vertices": [0], "values": [1.0], "value": 1.0}}, "stubborn.value"),
        ({"output": {"directory": "out", "dir": "elsewhere"}}, "output.dir"),
    ])
    def test_unknown_key_names_its_path(self, overrides, path):
        with pytest.raises(ConfigError, match=re.escape(path) + ": unknown key"):
            parse_config(with_overrides(**overrides))

    def test_missing_key_names_its_path(self):
        with pytest.raises(ConfigError, match=r"engines\[0\]\.name: missing"):
            parse_config(with_overrides(engines=[{"rho": 2.0}]))
        with pytest.raises(ConfigError, match=r"objective\.data\.outliers\[0\]\.value"):
            parse_config(with_overrides(objective={
                "kind": "quadratic", "data": {"outliers": [{"vertex": 0}]}}))

    @pytest.mark.parametrize("section, key, value", [
        ("lambda", "value", math.inf),
        ("lambda", "value", math.nan),
        ("lambda", "multiplier", math.inf),
        ("lambda", "multiplier", -1.0),
        ("engines", "gamma0", math.inf),
        ("engines", "gamma0", 0.0),
        ("engines", "rho", math.inf),
        ("engines", "rho", math.nan),
    ])
    def test_levels_must_be_positive_and_finite(self, section, key, value):
        if section == "lambda":
            bad, path = with_overrides(**{"lambda": {key: value}}), f"lambda.{key}"
        else:
            bad, path = with_overrides(engines=[{"name": "admm", key: value}]), f"engines[0].{key}"
        with pytest.raises(ConfigError, match=re.escape(path) + ": must be positive and finite"):
            parse_config(bad)

    NON_FINITE = {  # dotted path -> the config sections that put a value there
        "objective.data.low": lambda v: {"objective": {"kind": "quadratic", "data": {"low": v}}},
        "objective.data.high": lambda v: {"objective": {"kind": "quadratic", "data": {"high": v}}},
        "objective.data.values[1]": lambda v: {"objective": {"kind": "quadratic", "data": {
            "source": "explicit", "values": [0.0, v, 1.0, 2.0, 3.0]}}},
        "objective.data.outliers[0].value": lambda v: {"objective": {"kind": "quadratic", "data": {
            "outliers": [{"vertex": 0, "value": v}]}}},
        "stubborn.values[1]": lambda v: {"stubborn": {"vertices": [0, 1], "values": [0.5, v]}},
    }

    @pytest.mark.parametrize("path", list(NON_FINITE))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_data_and_pinned_values_must_be_finite(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path) + ": must be finite"):
            parse_config(with_overrides(**self.NON_FINITE[path](value)))

    def test_uniform_range_must_be_finite(self):
        data = {"low": -1e308, "high": 1e308}
        with pytest.raises(ConfigError, match=r"objective\.data: high - low must be finite"):
            parse_config(with_overrides(objective={"kind": "quadratic", "data": data}))

    def test_tolerances_take_infinite_and_negative_values(self):
        cfg = parse_config(with_overrides(engines=[
            {"name": "admm", "disagreement_tol": math.inf, "change_tol": -1.0}]))
        assert cfg.engines[0].stop == StopRule(disagreement_tol=math.inf, change_tol=-1.0)

    @pytest.mark.parametrize("overrides, path", [
        ({"graph": {"generator": "complete", "n": True}}, "graph.n"),
        ({"graph": {"generator": "complete", "n": 4.5}}, "graph.n"),
        ({"graph": {"generator": "erdos_renyi", "n": 5, "seed": 1.5}}, "graph.seed"),
        ({"objective": {"kind": "quadratic", "data": {"seed": False}}}, "objective.data.seed"),
        ({"engines": [{"name": "admm", "max_iterations": 2.7}]}, "engines[0].max_iterations"),
        ({"engines": [{"name": "admm", "record_every": True}]}, "engines[0].record_every"),
        ({"engines": [{"name": "admm", "max_iterations": "50"}]}, "engines[0].max_iterations"),
    ])
    def test_integer_fields_reject_other_types(self, overrides, path):
        with pytest.raises(ConfigError, match=re.escape(path) + ": expected an integer"):
            parse_config(with_overrides(**overrides))

    def test_integral_floats_are_integers(self):
        cfg = parse_config(with_overrides(engines=[{"name": "admm", "max_iterations": 50.0}]))
        assert cfg.engines[0].max_iterations == 50
        assert isinstance(cfg.engines[0].max_iterations, int)

    def test_stop_defaults_come_from_stop_rule(self):
        assert EngineConfig(name="admm").stop == StopRule()

    def test_tables_name_what_they_build(self, tmp_path):
        for name, build in ENGINES.items():
            assert build(EngineConfig(name=name), 0.5).name == name
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        for name in GENERATORS:
            graph = {"generator": name, "path": str(path)} if reads_file(name) else {
                "generator": name, "n": 3}
            assert build_graph(parse_config(with_overrides(graph=graph)).graph).n_vertices == 3
        for kind in OBJECTIVES:
            cfg = parse_config(with_overrides(objective={"kind": kind}))
            assert cfg.objective_kind == kind

    @pytest.mark.parametrize("overrides, path", [
        ({"graph": {"generator": "lattice", "n": 4}}, "graph.generator"),
        ({"objective": {"kind": "huber"}}, "objective.kind"),
        ({"objective": {"kind": "quadratic", "data": {"source": "normal"}}},
         "objective.data.source"),
    ])
    def test_unknown_names_are_rejected(self, overrides, path):
        with pytest.raises(ConfigError, match=re.escape(path) + ": unknown value"):
            parse_config(with_overrides(**overrides))

    def test_cli_choices_are_the_table_keys(self):
        commands = build_parser()._subparsers._group_actions[0].choices

        def choices(command, dest):
            return next(a.choices for a in commands[command]._actions if a.dest == dest)

        assert list(choices("certify", "kind")) == list(OBJECTIVES)
        assert list(choices("gen-graph", "generator")) == [
            name for name in GENERATORS if not reads_file(name)]
