"""Per-iteration metrics rows and their CSV serialization.

Byte output is deterministic for fixed input: floats use 17 significant
digits (exact round trip), the disagreement column stores the natural log
with the literal string ``-inf`` when the disagreement is exactly zero.  A
``Trajectory`` is written from its columns, without a ``MetricsRow`` per row,
through the same line formatter as a list of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engines import Trajectory

CSV_HEADER = "iter,disagreement_log,mean,objective,max_change"


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    disagreement_log: float
    mean: float
    objective: float
    max_change: float


def _columns(traj: Trajectory) -> tuple[list, ...]:
    """The five CSV columns of a trajectory as Python lists, one ``tolist`` each."""
    disagreement_log = [math.log(d) if d > 0.0 else -math.inf
                        for d in traj.disagreement.tolist()]
    return (traj.iterations.tolist(), disagreement_log, traj.mean.tolist(),
            traj.objective.tolist(), traj.max_change.tolist())


def metrics_from_trajectory(traj: Trajectory) -> list[MetricsRow]:
    return list(map(MetricsRow, *_columns(traj)))


def _line(iteration, disagreement_log, mean, objective, max_change) -> str:
    """One CSV row; ``.17g`` writes infinities as ``inf`` and ``-inf``."""
    return f"{iteration},{disagreement_log:.17g},{mean:.17g},{objective:.17g},{max_change:.17g}"


def render_csv(rows: list[MetricsRow] | Trajectory) -> str:
    """The CSV text of metrics rows, or of a trajectory's rows without building them."""
    if isinstance(rows, Trajectory):
        lines = map(_line, *_columns(rows))
    else:
        lines = (_line(r.iteration, r.disagreement_log, r.mean, r.objective, r.max_change)
                 for r in rows)
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def emit_csv(rows: list[MetricsRow] | Trajectory, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_csv(rows))
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def parse_csv(path: str) -> list[MetricsRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns")
            rows.append(
                MetricsRow(
                    iteration=int(parts[0]),
                    disagreement_log=float(parts[1]),
                    mean=float(parts[2]),
                    objective=float(parts[3]),
                    max_change=float(parts[4]),
                )
            )
    return rows
