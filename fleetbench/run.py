"""Fleet serving benchmark: seeded traffic through the real ``serve`` socket.

Usage, from the repository root::

    python3 fleetbench/run.py --workload depot --seed 1 --seconds 20 --trace 0

Each run launches ``repro-idling serve - --shards 2 --fsync --listen
unix:<sock>`` on an empty state directory (twice more before that, to
time set-up), drives one workload's stream over one connection, checks
every answer, stops the server with SIGTERM, relaunches it over the same
state directory and stops it again (three times), and ships the state
to an empty standby with ``replicate --passes 1`` (three times).  ``--seconds`` caps
the timed phase: depot's closed loop sends its whole stream unless the
cap ends it first; drip sends the events due within it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
run with span wrappers in every server process (``traced_cli.py``) and
prints the per-layer metrics, the traced-minus-untraced change of the
headline metrics, and the share of client-observed time the layers
account for.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 1 if
any check failed, and 2 without a result if the program could not be
run at all or its trace is incomplete (a layer function the wrappers no
longer find or that no longer runs, a request without a worker span, or
less than 95% of the client-observed time attributed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checker
import harness
import loadgen
import tracing

CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Launches on an empty state directory, warm restarts, and replication
#: passes to an empty standby per untraced run.  ``setup_s`` is the median
#: of its three; ``recover_s`` and ``standby_sync_s`` are means, because
#: process start-up on a shared host falls into modes ~0.3-1 s apart and a
#: median of three keeps landing in one or the other.  A traced run makes
#: one of each.
REPEATS = 3


def _decode(raw: list[bytes]) -> list:
    out = []
    for line in raw:
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append("<undecodable answer>")
    return out


def run_once(root: Path, work: Path, stream: loadgen.Stream, seconds: float,
             traced: bool) -> dict:
    """One full server lifecycle; returns everything observed."""
    shutil.rmtree(work, ignore_errors=True)
    # Start from a quiet disk: earlier runs leave thousands of unsynced
    # file writes and deletions whose writeback would land in this run.
    os.sync()
    work.mkdir(parents=True)
    steal0, all0 = harness.host_cpu()
    trace_dir = None
    if traced:
        trace_dir = work / "spans"
        trace_dir.mkdir()
    log = work / "server.log"
    sock = os.path.relpath(work / "s.sock", root)
    out: dict = {"setups": []}
    repeats = 1 if traced else REPEATS
    for probe in range(repeats - 1):
        server = harness.launch(root, work / f"probe-{probe}", sock, log)
        out["setups"].append(server)
        harness.stop(server)
    state = work / "state"
    server = harness.launch(root, state, sock, log, trace_dir)
    out["setups"].append(server)
    try:
        pids = harness.process_tree(server.process.pid)
        mark: dict = {}

        def on_start() -> None:
            mark["before"] = harness.proc_counters(pids)
            mark["start"] = harness.now_ns()

        warm = None
        if stream.due_s:
            warm, timed = harness.open_loop(
                sock, stream.warmup, stream.lines, stream.due_s, seconds, on_start
            )
        else:
            on_start()
            timed = harness.closed_loop(sock, stream.lines, loadgen.CLOSED_BATCH, seconds)
        end = harness.now_ns()
        after = harness.proc_counters(pids)
        _status, health = harness.http_get(sock, "/health")
        close_start = harness.now_ns()
        out["close_s"] = harness.stop(server)
        out["close_window"] = (close_start, harness.now_ns())
    except BaseException:
        harness.kill(server)
        raise
    out.update(warm=warm, timed=timed, phase=(mark["start"], end), before=mark["before"],
               after=after, health=health, pids=pids)
    out["state_files"], out["state_bytes"] = harness.tree_size(state)

    restart_start = harness.now_ns()
    recovers, out["restart_health"] = [], []
    for _restart in range(repeats):
        server = harness.launch(root, state, sock, log, trace_dir)
        try:
            recovers.append(server.setup_s)
            out["restart_health"].append(harness.http_get(sock, "/health")[1])
            harness.stop(server)
        except BaseException:
            harness.kill(server)
            raise
    out["recover_s"] = statistics.fmean(recovers)
    out["restart_window"] = (restart_start, harness.now_ns())
    standby_start = harness.now_ns()
    out["standby_sync_s"] = statistics.fmean(
        harness.replicate(root, state, work / f"standby-{index}", log, trace_dir)
        for index in range(repeats)
    )
    out["standby_window"] = (standby_start, harness.now_ns())
    steal1, all1 = harness.host_cpu()
    out["steal"] = (steal1 - steal0) / max(1, all1 - all0)
    if traced:
        out["spans"] = tracing.load_spans(trace_dir)
    shutil.rmtree(work, ignore_errors=True)
    return out


def sent_lines(stream: loadgen.Stream, run: dict) -> tuple[list, list, list]:
    """(lines, stops, malformed) of everything the run sent, in order."""
    count = run["timed"].lines
    lines = stream.warmup + stream.lines[:count]
    stops = stream.warmup_stops + stream.stops[:count]
    malformed = [False] * len(stream.warmup) + stream.malformed[:count]
    return lines, stops, malformed


def check(stream: loadgen.Stream, run: dict, reference: list) -> dict:
    """All correctness checks of one run: the answers (``failed``) and the
    warm restart's fleet totals (``recover_failed``)."""
    lines, stops, malformed = sent_lines(stream, run)
    raw = (run["warm"].answers if run["warm"] else []) + run["timed"].answers
    result = checker.check_answers(lines, stops, malformed, _decode(raw), reference)
    before = run["health"]
    vehicles_before = sum(row.get("vehicles") or 0 for row in before.get("shards", []))
    result["recover_failed"] = 0
    for after in run["restart_health"]:
        vehicles_after = sum(row.get("vehicles") or 0 for row in after.get("shards", []))
        if (after.get("fleet_cost"), vehicles_after) != (before.get("fleet_cost"), vehicles_before):
            result["recover_failed"] = len(raw)
            result["problems"].append(
                f"warm restart reports fleet_cost {after.get('fleet_cost')!r} over "
                f"{vehicles_after} vehicles; before shutdown {before.get('fleet_cost')!r} "
                f"over {vehicles_before}"
            )
    result["sent"] = len(lines)
    return result


def latencies_ms(run: dict) -> list[float]:
    """Each timed event's due send time to its answer's arrival."""
    timed = run["timed"]
    return [(a - d) / 1e6 for a, d in zip(timed.arrival_ns(), timed.due_ns)]


def end_to_end(run: dict, result: dict) -> dict:
    timed = run["timed"]
    events = len(timed.answers)
    wall = (run["phase"][1] - run["phase"][0]) / 1e9
    before, after = run["before"], run["after"]
    cpu_ticks = (after["utime"] + after["stime"]) - (before["utime"] + before["stime"])
    return {
        "events_per_s": events / wall,
        "cpu_us_per_event": cpu_ticks * 1e6 / CLK_TCK / max(1, events),
        "setup_s": statistics.median(server.setup_s for server in run["setups"]),
        "recover_s": run["recover_s"],
        "standby_sync_s": run["standby_sync_s"],
        "peak_rss_mb": after["vm_hwm_kb"] / 1024.0,
        "fleet_cr": result["cost"] / result["offline"] if result["offline"] else 0.0,
    }


def boundary_layers(run: dict) -> dict:
    """The ``proc``, ``state``, ``setup``, ``shard.imbalance``, ``latency``,
    ``loadgen`` and ``host`` rows: read from outside an untraced run."""
    timed = run["timed"]
    events = max(1, len(timed.answers))
    before, after = run["before"], run["after"]
    us = 1e6 / CLK_TCK
    parent = run["pids"][0]
    parent_ticks = after["per_pid_cpu"][parent] - before["per_pid_cpu"][parent]
    all_ticks = (after["utime"] + after["stime"]) - (before["utime"] + before["stime"])
    acked = [row.get("events_acked") or 0 for row in run["health"].get("shards", [])] or [0]
    if timed.batches:
        late = [(nxt[0] - cur[1]) / 1e6 for cur, nxt in zip(timed.batches, timed.batches[1:])]
    else:
        late = [(s - d) / 1e6 for s, d in zip(timed.sent_ns, timed.due_ns)]
    accepting = [(s.accepting_ns - s.launched_ns) / 1e9 for s in run["setups"]]
    workers = [(s.ready_ns - s.accepting_ns) / 1e9 for s in run["setups"]]
    return {
        "proc.parent_cpu_us_per_event": parent_ticks * us / events,
        "proc.worker_cpu_us_per_event": (all_ticks - parent_ticks) * us / events,
        "proc.sys_cpu_us_per_event": (after["stime"] - before["stime"]) * us / events,
        "proc.ctx_switches_per_event": (after["ctx"] - before["ctx"]) / events,
        "proc.write_syscalls_per_event": (after["syscw"] - before["syscw"]) / events,
        "proc.bytes_written_per_event": (after["write_bytes"] - before["write_bytes"]) / events,
        "proc.close_s": run["close_s"],
        "state.files": run["state_files"],
        "state.bytes_per_event": run["state_bytes"] / events,
        "setup.parent_s": statistics.median(accepting),
        "setup.workers_s": statistics.median(workers),
        "shard.imbalance": max(acked) / statistics.fmean(acked) if sum(acked) else 0.0,
        "latency.p50_ms": tracing.percentile(latencies_ms(run), 0.50),
        "latency.p90_ms": tracing.percentile(latencies_ms(run), 0.90),
        "latency.p99_ms": tracing.percentile(latencies_ms(run), 0.99),
        "loadgen.late_p99_ms": tracing.percentile(late, 0.99),
        "host.steal_frac": run["steal"],
    }


def traced_layers(stream: loadgen.Stream, run: dict) -> dict:
    timed = run["timed"]
    turnarounds = [(cur[1], nxt[0]) for cur, nxt in zip(timed.batches, timed.batches[1:])]
    client = {
        "phase": run["phase"], "sent_ns": timed.sent_ns, "due_ns": timed.due_ns,
        "arrival_ns": timed.arrival_ns(), "turnarounds": turnarounds,
        "malformed": stream.malformed[:timed.lines],
        "events": len(timed.answers), "close": run["close_window"],
        "serve": (run["setups"][-1].launched_ns, run["close_window"][1]),
        "restart": run["restart_window"], "standby": run["standby_window"],
    }
    return tracing.analyze(run["spans"], client)


def _spec() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=loadgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".fleetbench"
    started = time.monotonic()
    try:
        stream = loadgen.build_stream(args.workload, args.seed)
        untraced = run_once(root, base / "run", stream, args.seconds, traced=False)
        traced = None
        if args.trace:
            traced = run_once(root, base / "traced", stream, args.seconds, traced=True)
        references: dict[int, list] = {}
        results = {}
        for run in [untraced] + ([traced] if traced else []):
            lines = sent_lines(stream, run)[0]
            if len(lines) not in references:
                references[len(lines)] = checker.reference_decisions(lines, base / "reference")
            results[id(run)] = check(stream, run, references[len(lines)])
    except (harness.BenchError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    plain = end_to_end(untraced, results[id(untraced)])
    attempted = sum(r["sent"] for r in results.values())
    failed = sum(r["failed"] + r["recover_failed"] for r in results.values())
    problems = [p for r in results.values() for p in r["problems"]]

    print(f"fleetbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({time.monotonic() - started:.1f}s)")
    for name, run in (("untraced", untraced), ("traced", traced)):
        if run is None:
            continue
        result = results[id(run)]
        timed = run["timed"]
        wall = (run["phase"][1] - run["phase"][0]) / 1e9
        warm = len(run["warm"].answers) if run["warm"] else 0
        print(f"  {name}: phase   seconds   sent  answered  failed")
        print(f"    setup x{len(run['setups'])} {statistics.median(s.setup_s for s in run['setups']):8.3f}")
        if warm:
            print(f"    warmup          -  {len(stream.warmup):6d}  {warm:8d}       -")
        print(f"    ingest   {wall:8.3f}  {timed.lines:6d}  {len(timed.answers):8d}  "
              f"{result['failed']:6d}")
        print(f"    close    {run['close_s']:8.3f}")
        print(f"    recover  {run['recover_s']:8.3f}  {'':6}  {'':8}  {result['recover_failed']:6d}")
        print(f"    standby  {run['standby_sync_s']:8.3f}")
    boundary = boundary_layers(untraced)
    print(f"  latency p50/p90/p99: {boundary['latency.p50_ms']:.3f} / "
          f"{boundary['latency.p90_ms']:.3f} / {boundary['latency.p99_ms']:.3f} ms")
    print(f"  validity: host.steal_frac={boundary['host.steal_frac']:.4f} "
          f"loadgen.late_p99_ms={boundary['loadgen.late_p99_ms']:.3f} "
          f"shard.imbalance={boundary['shard.imbalance']:.4f}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        layers = traced_layers(stream, traced)
        shares, observed = layers.pop("_shares_ms"), layers.pop("_observed_ms")
        trace_problems = layers.pop("_problems")
        traced_e2e = end_to_end(traced, results[id(traced)])
        layers["trace.events_per_s_delta"] = traced_e2e["events_per_s"] - plain["events_per_s"]
        layers["trace.latency_p50_ms_delta"] = (
            tracing.percentile(latencies_ms(traced), 0.50) - boundary["latency.p50_ms"]
        )
        layers.update(boundary)
        print(f"  attribution of {observed:.1f} ms client-observed time:")
        for layer, ms in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:22s} {ms:10.1f} ms  {100 * ms / observed:5.1f}%")
        if trace_problems:
            for problem in trace_problems:
                print(f"error: trace incomplete: {problem}", file=sys.stderr)
            return 2
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: plain[m["name"]] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
