"""Spans around the serving layers' public functions, and their analysis.

:func:`install` wraps the functions below in the process that calls it
(``traced_cli.py`` calls it on import, so it runs in the ``serve``
parent, in every spawn-started shard worker, which re-imports the
launcher as its main module, and in ``replicate``).  Each call records
``(name, start, end, span id, parent span id, extra)`` with
``CLOCK_MONOTONIC`` nanoseconds, so spans of the client, the parent and
the workers line up.  Spans stay in memory and are written as one JSON
file per process at exit, with the functions that could not be wrapped
because the program no longer has them.

:func:`analyze` joins them with the client's timestamps.  A worker's
``ingest_lines`` span is the child of the parent's ``request_lines``
span that encloses it (one connection sends one request at a time).  A
layer's self time is its span minus the union of its child spans, and
every instant of the client-observed time is split evenly between the
spans active at that instant that have no active child, so the layers'
shares add up to the time observed.  It also lists what makes the
breakdown untrustworthy (a function not wrapped, a span never recorded,
a request with no worker span); a run with any such problem, or with
less than :data:`MIN_ATTRIBUTED` of its time attributed, must fail
rather than report the missing layers as 0.
"""

from __future__ import annotations

import atexit
import bisect
import functools
import importlib
import itertools
import json
import math
import os
import statistics
import threading
import time
from pathlib import Path

TRACE_DIR_ENV = "FLEETBENCH_TRACE_DIR"

#: Span name -> the layer its self time is attributed to.  Every traced
#: run records each of these spans at least once, in some process.
SPAN_LAYER = {
    "shard.request_lines": "shard",
    "advisor.ingest_lines": "advisor",
    "advisor.process_batch": "advisor",
    "advisor.session_open": "advisor.session_open",
    "batch.plan": "batch",
    "session.submit_batch": "session",
    "session.compact": "session.compact",
    "drift.update_many": "drift",
    "core.select_vertices": "core",
    "wal.append": "wal",
    "wal.reset": "wal",
    "wal.snapshot_save": "wal",
    "wal.load": "wal",
    "wal.replay": "wal",
    "wal.fsync": "wal.fsync",
    "advisor.recover": "advisor",
    "advisor.close": "advisor",
    "replica.sync": "replica",
}
#: Gaps :func:`analyze` measures between the client's and the server's
#: stamps, and their layers.
GAP_LAYER = {
    "frontend.inbound": "frontend.inbound",
    "frontend.outbound": "frontend.outbound",
    "loadgen.turnaround": "loadgen",
    "loadgen.late": "loadgen",
}
LAYER_OF = {**SPAN_LAYER, **GAP_LAYER}
#: Least share of the client-observed time a traced run must attribute to
#: named layers (span self time or named gaps).
MIN_ATTRIBUTED = 0.95


class Tracer:
    """Per-process span store; one per process, made by :func:`install`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        #: ``module:Class.function`` of each wrapper that could not be installed.
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._base = os.getpid() << 32
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, extra=None, before=None,
             record_if=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``extra(args, result, before(args))`` adds data to the span after
        it ends; ``record_if(args)`` drops calls it rejects (they stay
        ordinary self time of the enclosing span).
        """
        original = getattr(owner, attr)
        spans, stack_of, ids, base = self.spans, self._stack, self._ids, self._base
        clock = time.monotonic_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if record_if is not None and not record_if(args):
                return original(*args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = base + next(ids)
            stack.append(sid)
            result = None
            pre = None if before is None else before(args)
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, sid, parent,
                              None if extra is None else extra(args, result, pre)))

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        (or sums ``amount(args)``)."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, directory: Path) -> None:
        body = {"pid": os.getpid(), "ppid": os.getppid(), "spans": self.spans,
                "counts": self.counts, "missing": self.missing}
        path = directory / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(body))


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _resolve(path: str):
    """``"module:Class"`` or ``"module"`` -> the object, or None if the
    program no longer has it."""
    module_name, _sep, attr = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr.split(".")):
        owner = getattr(owner, part, None)
    return owner


def install() -> Tracer | None:
    """Wrap the serving layers in this process; no-op without the env var."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    tracer = Tracer()
    counts = tracer.counts
    run_type = _resolve("repro.service.batch:ColumnarRun")

    def n_lines(args, _result, _pre):
        return len(args[1])

    def fallback_lines(_args, _result, pre):
        return counts.get("advisor.fallback_lines", 0) - pre

    def plan_runs(_args, plan, _pre):
        if run_type is None:
            return [0, 0]
        runs = [item for item in getattr(plan, "items", ()) if isinstance(item, run_type)]
        return [len(runs), sum(len(run) for run in runs)]

    def wal_size(args):
        return _file_size(args[0].path)

    def appended(args, _result, pre):
        return wal_size(args) - pre

    def vehicles_walked(_args, stats, _pre):
        return stats.get("vehicles", 0) if isinstance(stats, dict) else 0

    # (owner, function, span name, extra, before, record_if)
    spans = [
        ("repro.service.shard:ShardedAdvisorService", "request_lines",
         "shard.request_lines", n_lines, None, None),
        ("repro.service.advisor:AdvisorService", "ingest_lines", "advisor.ingest_lines",
         fallback_lines, lambda _args: counts.get("advisor.fallback_lines", 0), None),
        ("repro.service.advisor:AdvisorService", "process_batch",
         "advisor.process_batch", None, None, None),
        ("repro.service.advisor:RegisteredAdvisorService", "session", "advisor.session_open",
         None, None, lambda args: str(args[1]) not in args[0].sessions),
        ("repro.service.advisor:RegisteredAdvisorService", "__init__", "advisor.recover",
         None, None, None),
        ("repro.service.advisor:RegisteredAdvisorService", "close", "advisor.close",
         None, None, None),
        ("repro.service.advisor", "plan_chunk", "batch.plan", plan_runs, None, None),
        ("repro.service.session:AdvisorSession", "submit_batch", "session.submit_batch",
         None, None, None),
        ("repro.service.session:AdvisorSession", "compact", "session.compact",
         None, None, None),
        ("repro.service.drift:DriftDetector", "update_many", "drift.update_many",
         None, None, None),
        ("repro.service.session", "select_vertices", "core.select_vertices",
         None, None, None),
        ("repro.service.wal:WriteAheadLog", "append_many", "wal.append", appended,
         wal_size, None),
        ("repro.service.wal:WriteAheadLog", "append", "wal.append", appended, wal_size, None),
        ("repro.service.wal:WriteAheadLog", "reset", "wal.reset", None, None, None),
        ("repro.service.wal:WriteAheadLog", "replay", "wal.replay", None, None, None),
        ("repro.service.wal:SnapshotStore", "save", "wal.snapshot_save",
         lambda args, _r, _p: _file_size(args[0].path), None, None),
        ("repro.service.wal:SnapshotStore", "save_delta", "wal.snapshot_save",
         lambda args, _r, _p: _file_size(args[0].delta_path), None, None),
        ("repro.service.wal:SnapshotStore", "load", "wal.load", None, None, None),
        ("os", "fsync", "wal.fsync", None, None, None),
        ("repro.service.replica", "sync_once", "replica.sync", vehicles_walked, None, None),
    ]
    for path, attr, name, extra, before, record_if in spans:
        owner = _resolve(path)
        if owner is not None and hasattr(owner, attr):
            tracer.wrap(owner, attr, name, extra, before, record_if)
        else:
            tracer.missing.append(f"{path}.{attr}")
    tallies = [
        ("repro.service.advisor", "parse_event_line", "advisor.fallback_lines", None),
        ("repro.service.replica:LocalReplicaTarget", "put_text", "replica.bytes_shipped",
         lambda args: len(args[2])),
        ("repro.service.replica:LocalReplicaTarget", "append_frames",
         "replica.bytes_shipped", lambda args: sum(len(line) + 1 for line in args[2])),
    ]
    for path, attr, name, amount in tallies:
        owner = _resolve(path)
        if owner is not None and hasattr(owner, attr):
            tracer.count(owner, attr, name, amount)
        else:
            tracer.missing.append(f"{path}.{attr}")
    atexit.register(tracer.dump, Path(directory))
    return tracer


# -- analysis ---------------------------------------------------------------


def load_spans(directory: Path) -> list[dict]:
    """Every process's dump: ``{"pid", "ppid", "spans", "counts"}``."""
    return [json.loads(path.read_text()) for path in sorted(directory.glob("spans-*.json"))]


def _within(spans: list[tuple], start: int, end: int) -> list[tuple]:
    return [span for span in spans if span[1] >= start and span[2] <= end]


def attribute(spans: list[tuple], observed: list[tuple[int, int]]) -> tuple[dict, int, int]:
    """Split observed time between layers (see the module docstring).

    ``spans`` are ``(name, start, end, sid, parent)``; ``observed`` are
    the client's intervals of interest.  Returns ``(ns per layer,
    observed ns, observed ns covered by some span)``.
    """
    marks = sorted({t for interval in observed for t in interval})
    events = []
    for name, start, end, sid, parent, *_rest in spans:
        if end > start:
            events.append((start, 1, sid, parent, name))
            events.append((end, 0, sid, parent, name))
    events.sort(key=lambda event: (event[0], event[1]))
    # observed-time indicator, stepped at interval boundaries
    depth_at = []
    for start, end in observed:
        depth_at.append((start, 1))
        depth_at.append((end, -1))
    depth_at.sort()
    active: dict[int, list] = {}  # sid -> [parent, name, active children]
    leaves: set[int] = set()
    shares: dict[str, float] = {}
    total = covered = 0
    cursor = None
    obs_depth = 0
    obs_index = 0
    points = sorted({event[0] for event in events} | set(marks))
    event_index = 0
    for point in points:
        if cursor is not None and obs_depth > 0 and point > cursor:
            width = point - cursor
            total += width
            if leaves:
                covered += width
                part = width / len(leaves)
                for sid in leaves:
                    layer = LAYER_OF.get(active[sid][1], active[sid][1])
                    shares[layer] = shares.get(layer, 0.0) + part
        while obs_index < len(depth_at) and depth_at[obs_index][0] == point:
            obs_depth += depth_at[obs_index][1]
            obs_index += 1
        while event_index < len(events) and events[event_index][0] == point:
            _t, opening, sid, parent, name = events[event_index]
            event_index += 1
            if opening:
                active[sid] = [parent, name, 0]
                leaves.add(sid)
                if parent in active:
                    active[parent][2] += 1
                    leaves.discard(parent)
            elif sid in active:
                del active[sid]
                leaves.discard(sid)
                if parent in active:
                    active[parent][2] -= 1
                    if active[parent][2] == 0:
                        leaves.add(parent)
        cursor = point
    return shares, total, covered


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def analyze(dumps: list[dict], client: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``client`` holds the client-side record of the run: ``phase``
    (start, end ns of the timed phase), ``sent_ns``, ``due_ns``,
    ``arrival_ns`` and ``malformed`` per line, ``turnarounds`` (closed
    loop: (answered, next send) ns pairs), ``events`` answered in the
    phase, and the ``serve`` (first launch to its exit), ``close``,
    ``restart`` and ``standby`` windows (start, end ns).  ``_problems``
    in the result lists what makes the breakdown untrustworthy.
    """
    phase_start, phase_end = client["phase"]
    spans: list[tuple] = []
    counts: dict[str, int] = {}
    problems: list[str] = []
    for dump in dumps:
        spans.extend(tuple(span) for span in dump["spans"])
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if dump.get("missing"):
            problems.append(f"process {dump['pid']} could not wrap "
                            f"{', '.join(dump['missing'])}")
    if not dumps:
        problems.append("no traced process wrote its spans")
    recorded = {span[0] for span in spans}
    for name in sorted(set(SPAN_LAYER) - recorded):
        problems.append(f"no process recorded a {name} span")
    in_phase = _within(spans, phase_start, phase_end)
    requests = sorted(span for span in in_phase if span[0] == "shard.request_lines")
    starts = [span[1] for span in requests]
    # worker chunk spans -> the request that encloses them
    linked = []
    first_in: dict[int, int] = {}
    last_out: dict[int, int] = {}
    for span in in_phase:
        if span[0] == "advisor.ingest_lines":
            at = bisect.bisect_right(starts, span[1]) - 1
            if at < 0 or span[2] > requests[at][2]:
                continue
            parent = requests[at][3]
            linked.append(span[:4] + (parent,) + span[5:])
            first_in[parent] = min(first_in.get(parent, span[1]), span[1])
            last_out[parent] = max(last_out.get(parent, span[2]), span[2])
        else:
            linked.append(span)
    # gaps the client sees on either side of each request
    sent, arrival, due = client["sent_ns"], client["arrival_ns"], client["due_ns"]
    gaps: list[tuple] = []

    def gap(name: str, start: int, end: int) -> None:
        gaps.append((name, start, end, -1 - len(gaps), 0))

    inbound, position, previous_exit, unlinked = [], 0, phase_start, 0
    for request in requests:
        lines = request[5]
        if position + lines > len(sent):
            break
        if request[3] not in first_in and not all(client["malformed"][position:position + lines]):
            unlinked += 1
        first_sent = sent[position]
        begin = max(first_sent, previous_exit)
        gap("frontend.inbound", begin, request[1])
        inbound.append((request[1] - first_sent) / 1e6)
        gap("frontend.outbound", request[2], arrival[position + lines - 1])
        position += lines
        previous_exit = request[2]
    for answered, next_send in client["turnarounds"]:
        gap("loadgen.turnaround", answered, next_send)
    for due_at, sent_at in zip(due, sent):
        if sent_at > due_at:
            gap("loadgen.late", due_at, sent_at)
    observed = [(d, a) for d, a in zip(due, arrival)] + [
        (answered, next_send) for answered, next_send in client["turnarounds"]
    ]
    if unlinked:
        problems.append(f"{unlinked} of {len(requests)} requests in the timed phase "
                        "have no worker ingest_lines span")
    shares, total, covered = attribute(linked + gaps, observed)
    attributed = covered / total if total else 0.0
    if attributed < MIN_ATTRIBUTED:
        problems.append(f"only {attributed:.1%} of the client-observed time is "
                        f"attributed to named layers (at least {MIN_ATTRIBUTED:.0%} required)")
    gap_layers = set(GAP_LAYER.values())
    gap_ns = sum(ns for layer, ns in shares.items() if layer in gap_layers)
    events = max(1, client["events"])

    def per_event_us(layer: str) -> float:
        return shares.get(layer, 0.0) / 1e3 / events

    def named(name: str, spans_=in_phase) -> list[tuple]:
        return [span for span in spans_ if span[0] == name]

    def mean_ms(items: list[tuple]) -> float:
        return statistics.fmean([(s[2] - s[1]) / 1e6 for s in items]) if items else 0.0

    queue_wait = [(first_in[r[3]] - r[1]) / 1e6 for r in requests if r[3] in first_in]
    acks = [(r[2] - last_out[r[3]]) / 1e6 for r in requests if r[3] in last_out]
    ingest = named("advisor.ingest_lines")
    fallback_chunks = sum(1 for span in ingest if span[5] > 0)
    plans = named("batch.plan")
    runs = sum(span[5][0] for span in plans)
    run_events = sum(span[5][1] for span in plans)
    appends = named("wal.append")
    saves = named("wal.snapshot_save")
    selects = named("core.select_vertices")
    compacts = named("session.compact")
    opens = named("advisor.session_open")
    # durations per call, over the first server's whole life (warm-up and close too)
    lifetime = _within(spans, *client["serve"])
    close = _within(spans, *client["close"])
    restart = _within(spans, *client["restart"])
    standby = _within(spans, *client["standby"])
    syncs = named("replica.sync", standby)
    return {
        "frontend.inbound_ms_p50": percentile(inbound, 0.5),
        "frontend.outbound_us_per_event": per_event_us("frontend.outbound"),
        "frontend.chunk_events_mean": statistics.fmean([r[5] for r in requests]) if requests else 0.0,
        "shard.self_us_per_event": per_event_us("shard"),
        "shard.queue_wait_ms_p50": percentile(queue_wait, 0.5),
        "shard.ack_ms_p50": percentile(acks, 0.5),
        "advisor.self_us_per_event": per_event_us("advisor"),
        "advisor.fallback_chunks": fallback_chunks,
        "advisor.sessions_opened": len(opens),
        "advisor.session_open_ms_mean": mean_ms(named("advisor.session_open", lifetime)),
        "advisor.close_ms": max([(s[2] - s[1]) / 1e6 for s in named("advisor.close", close)] or [0.0]),
        "advisor.recover_ms": max([(s[2] - s[1]) / 1e6 for s in named("advisor.recover", restart)] or [0.0]),
        "batch.plan_us_per_event": per_event_us("batch"),
        "batch.run_len_mean": run_events / runs if runs else 0.0,
        "session.submit_us_per_event": per_event_us("session"),
        "session.runs_per_event": len(appends) / events,
        "session.compactions_per_event": len(compacts) / events,
        "session.compact_ms_mean": mean_ms(named("session.compact", lifetime)),
        "drift.update_us_per_event": per_event_us("drift"),
        "core.select_calls_per_event": len(selects) / events,
        "core.select_us_per_call": mean_ms(selects) * 1e3,
        "wal.append_us_per_event": per_event_us("wal"),
        "wal.bytes_per_event": sum(s[5] for s in appends) / events,
        "wal.snapshot_saves_per_event": len(saves) / events,
        "wal.snapshot_bytes_per_event": sum(s[5] for s in saves) / events,
        "wal.resets": len(named("wal.reset")),
        "wal.fsyncs_per_event": len(named("wal.fsync")) / events,
        "wal.fsync_us_per_event": per_event_us("wal.fsync"),
        "wal.load_ms": sum((s[2] - s[1]) / 1e6 for s in named("wal.load", restart)),
        "wal.replay_ms": sum((s[2] - s[1]) / 1e6 for s in named("wal.replay", restart)),
        "replica.sync_ms": sum((s[2] - s[1]) / 1e6 for s in syncs),
        "replica.sessions_walked": sum(s[5] for s in syncs),
        "replica.bytes_shipped": counts.get("replica.bytes_shipped", 0),
        "trace.attributed_frac": attributed,
        "trace.gap_frac": gap_ns / total if total else 0.0,
        "_shares_ms": {layer: ns / 1e6 for layer, ns in sorted(shares.items())},
        "_observed_ms": total / 1e6,
        "_problems": problems,
    }
