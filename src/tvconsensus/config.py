"""Experiment configuration: YAML schema, validation, default materialization.

A configuration fully determines a run; all randomness is seeded.  See the
README for the documented schema.

Each YAML section is a frozen dataclass: its fields are the section's keys
and its field defaults are the schema's defaults.  One reader, ``_read``,
fills every section from its dataclass and rejects keys that are not fields.
The generator, objective and engine names are the keys of ``GENERATORS``,
``OBJECTIVES`` and ``ENGINES``, which map each name to what it builds.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple, NewType, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .engines import (
    AdmmEngine,
    GossipEngine,
    StopRule,
    SubgradientEngine,
    harmonic_schedule,
)
from .errors import ConfigError
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    load_edge_list,
    path_graph,
)
from .objectives import Absolute, Quadratic


# A number that must be finite: the data and pinned values.
Finite = NewType("Finite", float)


def _read_edge_list(cfg: GraphConfig) -> Graph:
    # ``load_edge_list`` is looked up at call time, so a wrapper set on this module is seen.
    return load_edge_list(cfg.path)


GENERATORS = {
    "complete": lambda cfg: complete_graph(cfg.n),
    "path": lambda cfg: path_graph(cfg.n),
    "cycle": lambda cfg: cycle_graph(cfg.n),
    "erdos_renyi": lambda cfg: erdos_renyi(cfg.n, cfg.p, cfg.seed),
    "edgelist": _read_edge_list,
}
OBJECTIVES = {"quadratic": Quadratic, "absolute": Absolute}
ENGINES = {
    SubgradientEngine.name: lambda cfg, lam: SubgradientEngine(lam, harmonic_schedule(cfg.gamma0)),
    AdmmEngine.name: lambda cfg, lam: AdmmEngine(lam, rho=cfg.rho),
    GossipEngine.name: lambda cfg, lam: GossipEngine(),
}


def reads_file(generator: str) -> bool:
    """True when the generator reads ``path`` rather than building ``n`` vertices."""
    return GENERATORS[generator] is _read_edge_list


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _one_of(value: str, names, where: str) -> None:
    _require(value in names, where, f"unknown value {value!r}, expected one of {tuple(names)}")


def _positive(value: float, where: str) -> None:
    _require(0.0 < value < math.inf, where, "must be positive and finite")


@dataclass(frozen=True)
class GraphConfig:
    generator: str = "complete"
    n: int = 0
    p: float = 0.5
    seed: int = 0
    path: str = ""

    def checked(self, where: str) -> GraphConfig:
        """Validated; the keys the generator does not take echo their defaults."""
        _one_of(self.generator, GENERATORS, f"{where}.generator")
        if reads_file(self.generator):
            _require(bool(self.path), f"{where}.path", f"{self.generator} graphs need a file path")
            return GraphConfig(generator=self.generator, path=self.path)
        _require(self.n >= 1, f"{where}.n", "need a positive vertex count")
        _require(0.0 <= self.p <= 1.0, f"{where}.p", "edge probability must be in [0, 1]")
        return replace(self, path=GraphConfig.path)


class Outlier(NamedTuple):
    vertex: int
    value: Finite


@dataclass(frozen=True)
class DataConfig:
    source: str = "uniform"  # uniform | explicit
    seed: int = 0
    low: Finite = 0.0
    high: Finite = 1.0
    values: tuple[Finite, ...] = ()
    outliers: tuple[Outlier, ...] = ()

    def checked(self, where: str) -> DataConfig:
        """Validated; the keys the source does not take echo their defaults."""
        _one_of(self.source, ("uniform", "explicit"), f"{where}.source")
        if self.source == "explicit":
            _require(bool(self.values), f"{where}.values",
                     "explicit data needs a nonempty 'values' list")
            return DataConfig(source=self.source, values=self.values, outliers=self.outliers)
        _require(math.isfinite(self.high - self.low), where, "high - low must be finite")
        return replace(self, values=DataConfig.values)


@dataclass(frozen=True)
class LambdaConfig:
    value: float | None = None
    multiplier: float | None = None

    def checked(self, where: str) -> LambdaConfig:
        _require((self.value is None) != (self.multiplier is None), where,
                 "give exactly one of 'value' or 'multiplier'")
        for key, level in (("value", self.value), ("multiplier", self.multiplier)):
            if level is not None:
                _positive(level, f"{where}.{key}")
        return self


@dataclass(frozen=True)
class EngineConfig:
    name: str
    gamma0: float = 1.0
    rho: float = 1.0
    max_iterations: int = StopRule.max_iterations
    disagreement_tol: float = StopRule.disagreement_tol
    change_tol: float = StopRule.change_tol
    record_every: int = 1

    def checked(self, where: str) -> EngineConfig:
        _one_of(self.name, ENGINES, f"{where}.name")
        _positive(self.gamma0, f"{where}.gamma0")
        _positive(self.rho, f"{where}.rho")
        _require(self.max_iterations >= 0, f"{where}.max_iterations", "must be nonnegative")
        _require(self.record_every >= 1, f"{where}.record_every", "must be at least 1")
        return self

    @property
    def stop(self) -> StopRule:
        return StopRule(self.max_iterations, self.disagreement_tol, self.change_tol)


@dataclass(frozen=True)
class StubbornConfig:
    vertices: tuple[int, ...] = ()
    values: tuple[Finite, ...] = ()

    def checked(self, where: str) -> StubbornConfig:
        _require(len(self.vertices) == len(self.values), where,
                 "need one pinned value per stubborn vertex")
        return self


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The whole run.  A field's YAML key is its name unless ``metadata["key"]`` says otherwise."""

    graph: GraphConfig
    objective_kind: str = field(metadata={"key": "objective.kind"})
    data: DataConfig = field(default=DataConfig(), metadata={"key": "objective.data"})
    lam: LambdaConfig = field(metadata={"key": "lambda"})
    engines: tuple[EngineConfig, ...]
    stubborn: StubbornConfig = StubbornConfig()
    output_dir: str = field(default="out", metadata={"key": "output.directory"})
    prefix: str = field(default="experiment", metadata={"key": "output.prefix"})

    def checked(self, where: str) -> ExperimentConfig:
        _one_of(self.objective_kind, OBJECTIVES, "objective.kind")
        _require(bool(self.engines), "engines", "need a nonempty list of engines")
        return self

    def resolved_dict(self) -> dict:
        """All fields with defaults materialized, for the summary echo."""
        echo = _plain(self)
        echo["lambda"] = echo.pop("lam")
        return echo


def _plain(value):
    """Sections as dicts and tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _as_mapping(node, where: str) -> dict:
    _require(isinstance(node, dict), where, f"expected a mapping, got {type(node).__name__}")
    return node


def _schema(cls) -> list[tuple[str, str, object, bool]]:
    """(YAML key, field name, type, required) for each field of a dataclass or NamedTuple."""
    hints = get_type_hints(cls)
    if is_dataclass(cls):
        return [(f.metadata.get("key", f.name), f.name, hints[f.name], f.default is MISSING)
                for f in fields(cls)]
    return [(name, name, hints[name], name not in cls._field_defaults) for name in cls._fields]


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _read(cls, node, where: str):
    """Fill ``cls`` from a YAML mapping, then run its ``checked`` if it has one.

    Absent keys keep the field defaults; a key that is not a field is an error.
    """
    node = _as_mapping(node, where)
    schema = _schema(cls)
    known = [key for key, *_ in schema]
    for key in node:
        _require(key in known, _at(where, key), f"unknown key, expected one of {known}")
    values = {}
    for key, name, tp, required in schema:
        if key in node:
            values[name] = _convert(tp, node[key], _at(where, key))
        else:
            _require(not required, _at(where, key), "missing")
    section = cls(**values)
    return section.checked(where) if hasattr(section, "checked") else section


def _convert(tp, value, where: str):
    """A YAML value as the field type ``tp``."""
    if is_dataclass(tp) or hasattr(tp, "_fields"):  # a section or an Outlier
        return _read(tp, value, where)
    if get_origin(tp) is tuple:
        _require(isinstance(value, list), where, "expected a list")
        item = get_args(tp)[0]
        return tuple(_convert(item, v, f"{where}[{k}]") for k, v in enumerate(value))
    if tp is int:
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        _require(integral and not isinstance(value, bool), where,
                 f"expected an integer, got {value!r}")
        return int(value)
    if tp is str:
        return str(value)
    try:  # float, Finite and float | None
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    _require(tp is not Finite or math.isfinite(number), where, "must be finite")
    return number


def parse_config(raw: dict) -> ExperimentConfig:
    raw = dict(_as_mapping(raw, "config"))
    for section in ("objective", "output"):
        if section in raw:
            for key, value in _as_mapping(raw.pop(section), section).items():
                raw[f"{section}.{key}"] = value
    return _read(ExperimentConfig, raw, "")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty configuration")
    return parse_config(raw)


def build_graph(cfg: GraphConfig) -> Graph:
    return GENERATORS[cfg.generator](cfg)


def build_initial_data(cfg: DataConfig, n_vertices: int) -> np.ndarray:
    if cfg.source == "explicit":
        if len(cfg.values) != n_vertices:
            raise ConfigError(
                f"objective.data.values: expected {n_vertices} values, got {len(cfg.values)}"
            )
        x0 = np.array(cfg.values, dtype=float)
    else:
        rng = np.random.default_rng(cfg.seed)
        x0 = rng.uniform(cfg.low, cfg.high, size=n_vertices)
    for vertex, value in cfg.outliers:
        if not 0 <= vertex < n_vertices:
            raise ConfigError(f"objective.data.outliers: unknown vertex {vertex}")
        x0[vertex] = value
    return x0
