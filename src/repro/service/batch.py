"""Columnar chunk planning for batched ingest.

The scalar serving loop walks one event at a time: parse, validate,
route to the vehicle's session, apply, WAL-append, fsync.  The batched
path amortizes all of that per *chunk*: this module turns a chunk of
parsed JSONL records into a :class:`ChunkPlan` — per-vehicle columnar
runs (numpy struct arrays of timestamps/stop lengths plus the event
ids) interleaved with malformed-event markers — that
:meth:`AdvisorService.process_batch
<repro.service.advisor.AdvisorService.process_batch>` executes with one
:meth:`~repro.service.session.AdvisorSession.submit_batch` group-commit
per run.

Planning preserves exactly the ordering that session state depends on:

* **within a vehicle**, events and malformed markers keep their chunk
  order (a malformed record claiming vehicle V splits V's run, because
  its failure-streak signal must land between the events it arrived
  between);
* **across vehicles**, runs are independent — per-vehicle session state
  never reads another vehicle's events — so the plan orders items by
  their first chunk index.  The only observable reordering is the row
  order of the shared validation report/quarantine sidecar within one
  chunk, which interleaved streams cannot preserve under group-commit.

Validation is byte-identical to the scalar path: every record goes
through :func:`repro.validation.schemas.stop_event_findings`, and the
resulting event tuples are what the columns are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..validation.schemas import stop_event_findings

__all__ = ["EVENT_DTYPE", "ColumnarRun", "MalformedEvent", "ChunkPlan", "plan_chunk"]

#: Structured dtype for one planned run: the record's position in the
#: chunk (for scattering decisions back), its timestamp and stop length.
#: Event ids stay in a Python list — they are arbitrary-length strings
#: and the session needs them as ``str`` for dedup hashing anyway.
EVENT_DTYPE = np.dtype(
    [("index", np.int64), ("t", np.float64), ("stop", np.float64)]
)


@dataclass
class ColumnarRun:
    """A maximal run of valid events for one vehicle, as columns."""

    vehicle: str
    event_ids: list
    columns: np.ndarray  # EVENT_DTYPE

    @property
    def indices(self) -> np.ndarray:
        return self.columns["index"]

    @property
    def timestamps(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def stop_lengths(self) -> np.ndarray:
        return self.columns["stop"]

    def __len__(self) -> int:
        return self.columns.shape[0]


@dataclass
class MalformedEvent:
    """A record that failed value validation, kept at its chunk position."""

    index: int
    vehicle: str | None  # identifiable claimed vehicle, if any
    record: object
    findings: list


@dataclass
class ChunkPlan:
    """The executable plan for one chunk: items in processing order."""

    size: int
    items: list  # ColumnarRun | MalformedEvent


def identifiable_vehicle(record) -> str | None:
    """The non-blank string ``vehicle`` a record claims, if any."""
    if isinstance(record, dict):
        vehicle = record.get("vehicle")
        if isinstance(vehicle, str) and vehicle.strip():
            return vehicle
    return None


#: Largest integer magnitude the fast-shape check accepts for ``t``/
#: ``stop``: within +-2**53 every int is exactly a float, so the fast
#: conversion and the scalar path's ``float(str(value))`` round-trip
#: agree bit-for-bit.  Bigger ints (rounding, or overflow to inf on the
#: string parse) take the slow path.
_EXACT_INT = 2**53


def _fast_event(record):
    """The common event shape, validated without string round-trips.

    Returns the same ``(id, vehicle, t, stop)`` tuple
    :func:`stop_event_findings` would, but only for records it can
    prove that function accepts with identical values: a plain dict
    with exactly-typed fields (``str`` ids, non-bool ``int``/``float``
    numbers, finite, non-negative).  Anything else returns None and is
    re-checked by the full validator — the fast path may *defer*, never
    disagree.
    """
    if type(record) is not dict:
        return None
    try:
        event_id = record["id"]
        vehicle = record["vehicle"]
        timestamp = record["t"]
        stop_length = record["stop"]
    except KeyError:
        return None
    if type(event_id) is not str or not event_id.strip():
        return None
    if type(vehicle) is not str or not vehicle.strip():
        return None
    for value in (timestamp, stop_length):
        kind = type(value)
        if kind is float:
            if not (math.isfinite(value) and value >= 0.0):
                return None
        elif kind is int:
            if not 0 <= value <= _EXACT_INT:
                return None
        else:
            return None
    return event_id, vehicle, float(timestamp), float(stop_length)


def plan_chunk(records) -> ChunkPlan:
    """Group a chunk of parsed records into an ordered :class:`ChunkPlan`.

    Valid events accumulate into per-vehicle runs; a malformed record
    flushes the run of the vehicle it claims to be from (preserving the
    within-vehicle order its health signal depends on).  Unattributable
    malformed records stand alone at their own chunk position.
    """
    # Per vehicle: a list of finished items plus one open run buffer.
    finished: dict[str, list] = {}
    open_runs: dict[str, list] = {}

    def _flush(vehicle: str) -> None:
        buffer = open_runs.get(vehicle)
        if not buffer:
            return
        columns = np.empty(len(buffer), dtype=EVENT_DTYPE)
        columns["index"] = [item[0] for item in buffer]
        columns["t"] = [item[2] for item in buffer]
        columns["stop"] = [item[3] for item in buffer]
        event_ids = [item[1] for item in buffer]
        finished.setdefault(vehicle, []).append(
            ColumnarRun(vehicle, event_ids, columns)
        )
        buffer.clear()

    loose: list[MalformedEvent] = []
    for index, record in enumerate(records):
        event = _fast_event(record)
        if event is None:
            findings, event = stop_event_findings(record)
        if event is None:
            vehicle = identifiable_vehicle(record)
            marker = MalformedEvent(index, vehicle, record, findings)
            if vehicle is None:
                loose.append(marker)
            else:
                _flush(vehicle)
                finished.setdefault(vehicle, []).append(marker)
            continue
        event_id, vehicle, timestamp, stop_length = event
        open_runs.setdefault(vehicle, []).append(
            (index, event_id, timestamp, stop_length)
        )
    for vehicle in open_runs:
        _flush(vehicle)

    items = [item for group in finished.values() for item in group] + loose
    items.sort(key=_first_index)
    return ChunkPlan(size=len(records), items=items)


def _first_index(item) -> int:
    if isinstance(item, MalformedEvent):
        return item.index
    return int(item.columns["index"][0])
