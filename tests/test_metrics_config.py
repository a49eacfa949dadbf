import math
import re
import tracemalloc

import numpy as np
import pytest
import yaml

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
from tvconsensus.metrics import BLOCK_ROWS, CSV_HEADER, _parts, render_csv


def trajectory(*rows):
    """A trajectory whose rows are (iteration, disagreement, mean, objective, max_change)."""
    its, dis, means, objective, change = zip(*rows) if rows else ((),) * 5
    return Trajectory(
        iterations=np.array(its, dtype=int),
        disagreement=np.array(dis, dtype=float),
        mean=np.array(means, dtype=float),
        objective=np.array(objective, dtype=float),
        max_change=np.array(change, dtype=float),
        final_x=np.zeros(2),
        converged=False,
        n_steps=its[-1] if its else 0,
    )


class TestMetricsCsv:
    def test_empty_trajectory_is_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv(trajectory(), str(path))
        assert path.read_text() == CSV_HEADER + "\n"
        assert parse_csv(str(path)) == []

    def test_single_row(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv(trajectory((0, 0.0, 0.5, 1.25, 0.0)), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,-inf,0.5,")

    def test_round_trip_identity(self, tmp_path):
        traj = trajectory(
            (0, 0.0, 0.5, 1.25, 0.0),
            (7, 1.234e-8, -1.0 / 3.0, 2.0**-40, 3.14159e-300),
            (100000, 1.0, 1e308, 0.1 + 0.2, 5e-324),
        )
        path = tmp_path / "m.csv"
        emit_csv(traj, str(path))
        assert parse_csv(str(path)) == metrics_from_trajectory(traj)
        assert parse_csv(str(path))[2] == MetricsRow(100000, 0.0, 1e308, 0.1 + 0.2, 5e-324)

    def test_deterministic_bytes(self, tmp_path):
        traj = trajectory(*((k, k + 1.5, k * 0.1, k * 1.1, 1e-9) for k in range(50)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(traj, str(a))
        emit_csv(traj, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_render_uses_17_significant_digits(self):
        out = render_csv(trajectory((1, 1.0, 0.1, 0.1, 0.1)))
        assert "0.10000000000000001" in out

    def test_parse_rejects_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            parse_csv(str(path))

    @pytest.mark.parametrize("text, message", [
        ("", ":1: unexpected header ''"),
        ("\nnope\n", ":2: unexpected header 'nope\\n'"),
        (f"{CSV_HEADER}\n0,-inf,0.5,1,0\n\n1,x,0.5,1,0\n",
         ":4: expected an integer and four numbers, got '1,x,0.5,1,0\\n'"),
        (f"{CSV_HEADER}\n0,-inf,0.5,1\n", ":2: expected an integer and four numbers, got "
         "'0,-inf,0.5,1\\n'"),
        (f"{CSV_HEADER}\n0.5,-inf,0.5,1,0\n", ":2: expected an integer and four numbers, got "
         "'0.5,-inf,0.5,1,0\\n'"),
    ])
    def test_parse_rejections_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_csv(str(path))
        assert str(info.value) == f"{path}{message}"

    def test_parse_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{CSV_HEADER}\n\n0,-inf,0.5,1.25,0\n\n")
        assert parse_csv(str(path)) == [MetricsRow(0, -math.inf, 0.5, 1.25, 0.0)]

    def test_emit_into_a_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "m.csv"
        with pytest.raises(FileNotFoundError) as info:
            emit_csv(trajectory(), str(path))
        assert str(path) in str(info.value)

    def test_trajectory_path_writes_the_bytes_of_its_rows(self, tmp_path):
        # 0.0 is written -inf; then a subnormal, a 17-digit value and a large one.
        traj = trajectory(
            (0, 0.0, -0.0, 1e-310, 0.0),
            (1, 5e-324, 0.0, -0.0, 5e-324),
            (2, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, -0.0),
            (3, 1.0, -2.0**-1074, 1e300, np.nextafter(1.0, 2.0)),
            (10**6, 1e308, 123456789.01234567, 0.1, 3.14159e-300),
        )
        path = tmp_path / "m.csv"
        emit_csv(traj, str(path))
        assert path.read_text() == render_csv(traj)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,-inf,-0,9.9999999999999694e-311,0"
        assert lines[2] == "1,-744.44007192138122,0,-0,4.9406564584124654e-324"
        # repr tells -0.0 from 0.0, which == does not.
        assert [[repr(v) for v in vars(r).values()] for r in parse_csv(str(path))] == [
            [repr(v) for v in vars(r).values()] for r in metrics_from_trajectory(traj)
        ]

    @staticmethod
    def long_trajectory(n_rows):
        """``n_rows`` rows of random values with a zero disagreement, ``inf`` and ``-inf``."""
        rng = np.random.default_rng(n_rows)
        values = rng.normal(size=(4, n_rows)) * 10.0 ** rng.integers(-300, 300, size=(4, n_rows))
        values[0] = np.abs(values[0])
        values[0, 0] = 0.0
        values[:, n_rows // 2] = [np.inf, -np.inf, np.inf, 0.0]
        values[1:, -1] = [-np.inf, np.inf, np.inf]
        return trajectory(*zip(range(0, 7 * n_rows, 7), *values))

    @pytest.mark.parametrize("n_rows", [1, 511, 512, 513, 1025])
    def test_block_boundaries_keep_every_row(self, tmp_path, n_rows):
        traj = self.long_trajectory(n_rows)
        rows = [",".join([str(it), "-inf" if d == 0.0 else "%.17g" % math.log(d),
                          *("%.17g" % v for v in others)])
                for it, d, *others in zip(traj.iterations.tolist(), traj.disagreement.tolist(),
                                          traj.mean.tolist(), traj.objective.tolist(),
                                          traj.max_change.tolist())]
        expected = "\n".join([CSV_HEADER, *rows]) + "\n"
        path = tmp_path / "m.csv"
        emit_csv(traj, str(path))
        assert path.read_bytes() == expected.encode()
        assert render_csv(traj) == expected
        assert {"-inf", "inf"} <= set(expected.replace("\n", ",").split(","))

    @pytest.mark.parametrize("n_rows", [0, 1, 512, 513, 1025])
    def test_one_part_per_block_led_by_the_header(self, n_rows):
        # The header used to be a part of its own: one more write than the rows need.
        traj = self.long_trajectory(n_rows) if n_rows else trajectory()
        parts = list(_parts(traj))
        assert len(parts) == max(1, math.ceil(n_rows / BLOCK_ROWS))
        assert parts[0].startswith(CSV_HEADER + "\n")
        assert "".join(parts) == render_csv(traj)
        assert [part.count("\n") for part in parts[1:]] == [
            min(BLOCK_ROWS, n_rows - start) for start in range(BLOCK_ROWS, n_rows, BLOCK_ROWS)]

    def test_writer_memory_does_not_grow_with_the_run(self, tmp_path):
        traj = self.long_trajectory(20_000)
        path = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            emit_csv(traj, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_cycle_needs_three_vertices(self, n):
        bad = with_overrides(graph={"generator": "cycle", "n": n})
        with pytest.raises(ConfigError, match=r"graph\.n: a cycle needs at least 3 vertices"):
            parse_config(bad)

    def test_bad_probability(self):
        bad = with_overrides(graph={"generator": "erdos_renyi", "n": 5, "p": 1.5})
        with pytest.raises(ConfigError, match=r"graph.p"):
            parse_config(bad)

    @pytest.mark.parametrize("section, where", [
        ({"graph": {"generator": "erdos_renyi", "n": 5, "seed": -1}}, r"graph\.seed"),
        ({"graph": {"generator": "complete", "n": 5, "seed": -1}}, r"graph\.seed"),
        ({"objective": {"kind": "quadratic", "data": {"source": "uniform", "seed": -3}}},
         r"objective\.data\.seed"),
    ])
    def test_negative_seed(self, section, where):
        with pytest.raises(ConfigError, match=where + ": must be nonnegative"):
            parse_config(with_overrides(**section))

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
        assert ENGINES["subgradient"](cfg.engines[0], 1.0).gamma0 == 0.5

    def test_yaml_syntax_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text in MALFORMED_YAML:
            path.write_text(text)
            with pytest.raises(ConfigError, match=f"cannot parse {re.escape(str(path))}: "):
                load_config(str(path))

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "missing.yaml"
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: "):
            load_config(str(path))

    def test_a_file_that_is_not_utf8_is_unreadable(self, tmp_path):
        # It used to raise a bare UnicodeDecodeError without the path.
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"graph:\n  \xff\n")
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: .*0xff"):
            load_config(str(path))

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: empty configuration$"):
            load_config(str(path))

    def test_value_that_is_not_a_number(self):
        bad = with_overrides(graph={"generator": "erdos_renyi", "n": 5, "p": "half"})
        with pytest.raises(ConfigError, match=r"^graph\.p: expected a number, got 'half'$"):
            parse_config(bad)


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

    def test_outlier_on_an_unknown_vertex(self):
        cfg = parse_config(with_overrides(objective={
            "kind": "quadratic",
            "data": {"source": "explicit", "values": [1.0, 2.0, 3.0],
                     "outliers": [{"vertex": 3, "value": 10.0}]},
        }))
        with pytest.raises(ConfigError, match=r"^objective\.data\.outliers: unknown vertex 3$"):
            build_initial_data(cfg.data, 3)

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

    def test_uniform_range_must_not_be_reversed(self):
        data = {"low": 1.0, "high": 0.0}
        with pytest.raises(ConfigError, match=r"objective\.data\.high: must be at least low"):
            parse_config(with_overrides(objective={"kind": "quadratic", "data": data}))
        data = {"low": 0.5, "high": 0.5}
        assert parse_config(with_overrides(objective={"kind": "quadratic", "data": data}))

    def test_tolerances_take_infinite_and_negative_values(self):
        cfg = parse_config(with_overrides(engines=[
            {"name": "admm", "disagreement_tol": math.inf, "change_tol": -1.0}]))
        assert cfg.engines[0].stop == StopRule(disagreement_tol=math.inf, change_tol=-1.0)

    @pytest.mark.parametrize("key", ["disagreement_tol", "change_tol"])
    def test_tolerances_reject_nan(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"engines[1].{key}: must not be NaN")):
            parse_config(with_overrides(engines=[{"name": "admm"}, {"name": "gossip", key: math.nan}]))

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

    @pytest.mark.parametrize("overrides, path, value", [
        ({"output": {"prefix": None}}, "output.prefix", "None"),
        ({"output": {"prefix": 5}}, "output.prefix", "5"),
        ({"output": {"directory": {"a": 1}}}, "output.directory", "{'a': 1}"),
        ({"graph": {"generator": "edgelist", "path": None}}, "graph.path", "None"),
        ({"graph": {"generator": 1, "n": 4}}, "graph.generator", "1"),
        ({"objective": {"kind": True}}, "objective.kind", "True"),
        ({"objective": {"kind": "quadratic", "data": {"source": ["uniform"]}}},
         "objective.data.source", "['uniform']"),
        ({"engines": [{"name": 2.5}]}, "engines[0].name", "2.5"),
    ])
    def test_string_fields_reject_other_types(self, overrides, path, value):
        message = f"{path}: expected a string, got {value}; quote a number"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(with_overrides(**overrides))

    def test_quoted_numbers_are_strings(self):
        cfg = parse_config(with_overrides(output={"directory": "2024", "prefix": "7"}))
        assert (cfg.output_dir, cfg.prefix) == ("2024", "7")

    @pytest.mark.parametrize("overrides, path", [
        ({"objective": {"kind": "quadratic",
                        "data": {"source": "explicit", "values": [1.0, True, False, 0.5, 2.0]}}},
         "objective.data.values[1]"),
        ({"objective": {"kind": "quadratic", "data": {"low": False}}}, "objective.data.low"),
        ({"lambda": {"value": True}}, "lambda.value"),
        ({"lambda": {"multiplier": True}}, "lambda.multiplier"),
        ({"engines": [{"name": "admm", "rho": True}]}, "engines[0].rho"),
        ({"engines": [{"name": "subgradient", "gamma0": True}]}, "engines[0].gamma0"),
        ({"engines": [{"name": "admm", "change_tol": False}]}, "engines[0].change_tol"),
        ({"graph": {"generator": "erdos_renyi", "n": 5, "p": True}}, "graph.p"),
        ({"stubborn": {"vertices": [0], "values": [True]}}, "stubborn.values[0]"),
    ])
    def test_number_fields_reject_booleans(self, overrides, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a number, got "):
            parse_config(with_overrides(**overrides))

    def test_number_fields_take_numeric_strings(self):
        # PyYAML reads 1e-9 (no dot) as the string '1e-9'.
        cfg = parse_config(yaml.safe_load(yaml.safe_dump(with_overrides(
            engines=[{"name": "subgradient", "gamma0": "1e-9", "change_tol": "1e-12"}]))))
        assert (cfg.engines[0].gamma0, cfg.engines[0].change_tol) == (1e-9, 1e-12)
        assert yaml.safe_load("tol: 1e-9") == {"tol": "1e-9"}

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
