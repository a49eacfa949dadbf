"""Per-iteration metrics rows and their CSV serialization.

Byte output is deterministic for fixed input: floats use 17 significant
digits (exact round trip), the disagreement column stores the natural log
with the literal string ``-inf`` when the disagreement is exactly zero.  A
``Trajectory`` is written from its columns, without a ``MetricsRow`` per row, and
``BLOCK_ROWS`` rows at a time, so the writer's memory does not grow with the run;
``parse_csv`` reads the rows back.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .engines import Trajectory
from .graph import _records, write_text

CSV_HEADER = "iter,disagreement_log,mean,objective,max_change"
BLOCK_ROWS = 512  # rows formatted and written at a time


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    disagreement_log: float
    mean: float
    objective: float
    max_change: float


def _columns(traj: Trajectory, rows: slice = slice(None)) -> tuple[list, ...]:
    """The five CSV columns of a trajectory's ``rows`` as Python lists, one ``tolist`` each."""
    disagreement_log = [math.log(d) if d > 0.0 else -math.inf
                        for d in traj.disagreement[rows].tolist()]
    return (traj.iterations[rows].tolist(), disagreement_log, traj.mean[rows].tolist(),
            traj.objective[rows].tolist(), traj.max_change[rows].tolist())


def metrics_from_trajectory(traj: Trajectory) -> list[MetricsRow]:
    return list(map(MetricsRow, *_columns(traj)))


def _line(iteration, disagreement_log, mean, objective, max_change) -> str:
    """One CSV row with its line end; ``.17g`` writes infinities as ``inf`` and ``-inf``."""
    return f"{iteration},{disagreement_log:.17g},{mean:.17g},{objective:.17g},{max_change:.17g}\n"


def _parts(traj: Trajectory) -> Iterator[str]:
    """Each block of ``BLOCK_ROWS`` rows as text, the first led by the header (alone if none)."""
    for start in range(0, max(len(traj.iterations), 1), BLOCK_ROWS):
        head = "" if start else CSV_HEADER + "\n"
        yield head + "".join(map(_line, *_columns(traj, slice(start, start + BLOCK_ROWS))))


def render_csv(traj: Trajectory) -> str:
    """The CSV text of a trajectory's rows, written from its columns."""
    return "".join(_parts(traj))


def emit_csv(traj: Trajectory, path: str) -> None:
    """Write the text of ``render_csv`` to ``path``, a block of rows at a time."""
    write_text(path, _parts(traj))


def parse_csv(path: str) -> list[MetricsRow]:
    """The rows of a metrics CSV; a bad header or row raises ``ValueError`` at ``path:line``."""
    records = _records(path)
    lineno, raw, header = next(records, (1, "", ""))
    if header != CSV_HEADER:
        raise ValueError(f"{path}:{lineno}: unexpected header {raw!r}")
    rows = []
    for lineno, raw, text in records:
        try:
            iteration, *values = text.split(",")
            rows.append(MetricsRow(int(iteration), *map(float, values)))
        except (TypeError, ValueError) as exc:  # TypeError: a row without five columns
            raise ValueError(
                f"{path}:{lineno}: expected an integer and four numbers, got {raw!r}"
            ) from exc
    return rows
