"""Tests of the benchmark's own load generator, answer checker and trace checks.

Run from the repository root: ``python3 -m pytest fleetbench -q``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", loadgen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = loadgen.build_stream(workload, 5).to_bytes()
    assert loadgen.build_stream(workload, 5).to_bytes() == first
    assert loadgen.build_stream(workload, 6).to_bytes() != first


@pytest.mark.parametrize("workload", loadgen.WORKLOADS)
def test_each_vehicle_clock_strictly_increases(workload):
    stream = loadgen.build_stream(workload, 3)
    last: dict[str, float] = {}
    for line, bad in zip(stream.warmup + stream.lines,
                         [False] * len(stream.warmup) + stream.malformed):
        if bad:
            continue
        record = json.loads(line)
        assert record["t"] > last.get(record["vehicle"], -1.0)
        last[record["vehicle"]] = record["t"]


def test_drip_malformed_lines_are_never_a_vehicles_first_line():
    stream = loadgen.build_stream("drip", 3)
    assert 0.001 < sum(stream.malformed) / len(stream.lines) < 0.004
    warmed = {re.search(r'"vehicle": "([^"]+)"', line).group(1) for line in stream.warmup}
    kinds = set()
    for line, bad in zip(stream.lines, stream.malformed):
        if not bad:
            continue
        assert re.search(r'"id": "([^"]+)-[0-9]+"', line).group(1) in warmed
        try:
            record = json.loads(line)
        except ValueError:
            kinds.add("truncated")
        else:
            kinds.add("missing stop" if "stop" not in record else "non-numeric stop")
    assert kinds == {"truncated", "missing stop", "non-numeric stop"}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A drip prefix (warm-up and malformed lines included) and its reference answers."""
    stream = loadgen.build_stream("drip", 4)
    cut = stream.malformed.index(True) + 200
    lines = stream.warmup + stream.lines[:cut]
    stops = stream.warmup_stops + stream.stops[:cut]
    bad = [False] * len(stream.warmup) + stream.malformed[:cut]
    reference = checker.reference_decisions(lines, tmp_path_factory.mktemp("ref") / "state")
    return lines, stops, bad, reference


def _roundtrip(decisions):
    return [json.loads(json.dumps(decision)) for decision in decisions]


def test_reference_answers_pass(served):
    lines, stops, bad, reference = served
    result = checker.check_answers(lines, stops, bad, _roundtrip(reference), reference)
    assert result["failed"] == 0 and result["digest_match"]
    assert [answer is None for answer in reference] == bad


def test_flipped_threshold_is_caught(served):
    lines, stops, bad, reference = served
    answers = _roundtrip(reference)
    index = next(i for i, answer in enumerate(answers) if answer and not answer["restarted"])
    answers[index]["threshold"] = stops[index] / 2  # now the engine should have restarted
    result = checker.check_answers(lines, stops, bad, answers, reference)
    assert result["failed"] == 1 and not result["digest_match"]


def test_dropped_answer_is_caught(served):
    lines, stops, bad, reference = served
    answers = _roundtrip(reference)
    del answers[len(answers) // 2]
    result = checker.check_answers(lines, stops, bad, answers, reference)
    assert result["failed"] >= 1 and not result["digest_match"]


def test_decision_for_malformed_line_is_caught(served):
    lines, stops, bad, reference = served
    answers = _roundtrip(reference)
    index = bad.index(True)
    answers[index] = dict(answers[index - 1])
    result = checker.check_answers(lines, stops, bad, answers, reference)
    assert result["failed"] == 1


def _trace():
    """A two-request closed-loop trace with every listed span recorded.

    Returns ``(dumps, client)`` for :func:`tracing.analyze`: the parent's
    ``request_lines`` spans enclose one worker ``ingest_lines`` span each,
    and every other listed span is recorded once, after the timed phase.
    """
    ms = 1_000_000
    parent = [("shard.request_lines", 1 * ms, 9 * ms, 1, 0, 2),
              ("shard.request_lines", 12 * ms, 19 * ms, 2, 0, 2)]
    worker = [("advisor.ingest_lines", 2 * ms, 8 * ms, 11, 0, 0),
              ("advisor.ingest_lines", 13 * ms, 18 * ms, 12, 0, 0)]
    others = sorted(set(tracing.SPAN_LAYER) - {"shard.request_lines", "advisor.ingest_lines"})
    later = [(name, (30 + i) * ms, (30 + i) * ms + ms // 2, 100 + i, 0, [1, 1])
             for i, name in enumerate(others)]
    dumps = [{"pid": 10, "ppid": 1, "spans": parent + later, "counts": {}, "missing": []},
             {"pid": 11, "ppid": 10, "spans": worker, "counts": {}, "missing": []}]
    never = (1000 * ms, 1001 * ms)
    client = {
        "phase": (0, 20 * ms), "sent_ns": [0, 0, 11 * ms, 11 * ms],
        "due_ns": [0, 0, 11 * ms, 11 * ms], "arrival_ns": [10 * ms] * 2 + [20 * ms] * 2,
        "malformed": [False] * 4, "turnarounds": [(10 * ms, 11 * ms)], "events": 4,
        "serve": never, "close": never, "restart": never, "standby": never,
    }
    return dumps, client


def test_complete_trace_attributes_all_time():
    result = tracing.analyze(*_trace())
    assert result["_problems"] == []
    assert result["trace.attributed_frac"] == 1.0
    # inbound 0-1 and 11-12, outbound 9-10 and 19-20, turnaround 10-11 (ms)
    assert result["trace.gap_frac"] == pytest.approx(5 / 20)


def test_unwrapped_function_fails_the_trace():
    dumps, client = _trace()
    dumps[1]["missing"] = ["repro.service.session:AdvisorSession.submit_batch"]
    problems = tracing.analyze(dumps, client)["_problems"]
    assert any("could not wrap" in problem for problem in problems)


def test_span_no_process_recorded_fails_the_trace():
    dumps, client = _trace()
    dumps[0]["spans"] = [span for span in dumps[0]["spans"] if span[0] != "wal.fsync"]
    problems = tracing.analyze(dumps, client)["_problems"]
    assert problems == ["no process recorded a wal.fsync span"]


def test_request_without_worker_span_fails_the_trace():
    dumps, client = _trace()
    del dumps[1]["spans"][1]
    result = tracing.analyze(dumps, client)
    # the shard span still covers the time, so only the link check can tell
    assert result["trace.attributed_frac"] == 1.0
    assert result["_problems"] == ["1 of 2 requests in the timed phase have no "
                                   "worker ingest_lines span"]
    client["malformed"] = [False, False, True, True]
    assert tracing.analyze(dumps, client)["_problems"] == []
