"""Experiment result containers and report writers.

matplotlib is not available in the offline environment, so every figure
is emitted as (a) an ASCII table on stdout and (b) CSV series ready to be
plotted elsewhere.  Each experiment module returns an
:class:`ExperimentResult` holding one or more named tables, plus the
per-stage :class:`~repro.engine.instrument.StageTiming` records its run
collected.

Results round-trip losslessly through a plain-JSON payload
(:meth:`ExperimentResult.to_payload` / ``from_payload``) — the storage
format of the on-disk result cache (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..engine.instrument import StageTiming
from ..errors import InvalidParameterError

__all__ = ["Table", "ExperimentResult", "format_table"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _plain(value):
    """Coerce numpy scalars to the built-in types JSON can store."""
    import numpy as np

    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an ASCII table with padded columns."""
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered)) if rendered else len(str(header))
        for i, header in enumerate(headers)
    ]
    def line(cells):
        return " | ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))
    separator = "-+-".join("-" * width for width in widths)
    out = [line(headers), separator]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


@dataclass
class Table:
    """One named table of an experiment."""

    name: str
    headers: tuple[str, ...]
    rows: list[tuple]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.headers):
                raise InvalidParameterError(
                    f"table {self.name!r}: row {row!r} does not match headers {self.headers!r}"
                )

    def to_ascii(self) -> str:
        return format_table(self.headers, self.rows)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)

    def to_payload(self) -> dict:
        """Plain-JSON form (tuples become lists, numpy scalars built-ins)."""
        return {
            "name": self.name,
            "headers": list(self.headers),
            "rows": [[_plain(cell) for cell in row] for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Table":
        return cls(
            name=payload["name"],
            headers=tuple(payload["headers"]),
            rows=[tuple(row) for row in payload["rows"]],
        )


@dataclass
class ExperimentResult:
    """Everything one paper artifact's reproduction produced."""

    experiment_id: str
    title: str
    tables: list[Table]
    notes: list[str] = field(default_factory=list)
    timings: list[StageTiming] = field(default_factory=list)

    def table(self, name: str) -> Table:
        for table in self.tables:
            if table.name == name:
                return table
        raise InvalidParameterError(
            f"experiment {self.experiment_id!r} has no table {name!r}; "
            f"available: {[t.name for t in self.tables]}"
        )

    def to_ascii(self, include_timings: bool = True) -> str:
        """Full textual report.

        ``include_timings=False`` drops the wall-time section, which the
        benchmark emitters use to keep the stored report files
        deterministic across regenerations.
        """
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for note in self.notes:
            parts.append(f"  note: {note}")
        for table in self.tables:
            parts.append(f"\n-- {table.name} --")
            parts.append(table.to_ascii())
        if include_timings and self.timings:
            parts.append("\n-- timings --")
            rows = [
                (t.stage, round(t.seconds, 4), t.tasks if t.tasks is not None else "")
                for t in self.timings
            ]
            parts.append(format_table(("stage", "seconds", "tasks"), rows))
        return "\n".join(parts)

    def write_csvs(self, directory: str | Path) -> list[Path]:
        """Write every table as ``<experiment_id>_<table>.csv``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for table in self.tables:
            safe = table.name.replace(" ", "_").replace("/", "-")
            path = directory / f"{self.experiment_id}_{safe}.csv"
            table.write_csv(path)
            paths.append(path)
        return paths

    def to_payload(self) -> dict:
        """Plain-JSON form of the whole result (the cache storage format)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [table.to_payload() for table in self.tables],
            "notes": list(self.notes),
            "timings": [timing.to_payload() for timing in self.timings],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            tables=[Table.from_payload(table) for table in payload["tables"]],
            notes=list(payload["notes"]),
            timings=[StageTiming.from_payload(t) for t in payload.get("timings", [])],
        )
