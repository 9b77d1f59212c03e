"""Answer checks: every served decision must be exactly what it should be.

:func:`check_answers` compares the answers one connection received with
the lines it sent:

* every line gets exactly one answer, in order (the answer names the
  line's vehicle and event id);
* the answer is ``null`` exactly for malformed lines;
* each decision's ``cost`` is the online cost of its ``threshold`` on the
  stop: the stop if it is shorter than the threshold, else threshold + B;
* the decisions equal, line for line, those of an in-process
  ``AdvisorService`` fed the same lines (:func:`reference_decisions`),
  and so do their digests.

Each line that fails any check counts once in ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from loadgen import BREAK_EVEN, CLOSED_BATCH


def digest(decisions: list) -> str:
    body = json.dumps(decisions, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def reference_decisions(lines: list[str], state_dir: Path) -> list:
    """Decisions of an in-process ``AdvisorService`` over ``lines``.

    Same session config as ``serve``'s defaults; fsync is off because
    durability cannot change a decision.
    """
    from repro.service import AdvisorService, SessionConfig

    shutil.rmtree(state_dir, ignore_errors=True)
    service = AdvisorService(state_dir, SessionConfig(break_even=BREAK_EVEN), policy="repair")
    decisions: list = []
    for start in range(0, len(lines), CLOSED_BATCH):
        decisions.extend(service.ingest_lines(lines[start:start + CLOSED_BATCH]))
    service.close()
    shutil.rmtree(state_dir, ignore_errors=True)
    return decisions


def online_cost(stop: float, threshold: float) -> float:
    return stop if stop < threshold else threshold + BREAK_EVEN


def check_answers(lines: list[str], stops: list[float], malformed: list[bool],
                  answers: list, reference: list) -> dict:
    """Check decoded ``answers`` against the sent lines; see the module docstring.

    Returns ``{"failed", "problems", "cost", "offline", "digest_match"}``
    where ``cost``/``offline`` are the realized and offline-optimal
    costs over the answered lines.
    """
    failed = 0
    problems: list[str] = []
    cost = offline = 0.0

    def fail(index: int, why: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 5:
            problems.append(f"line {index}: {why}")

    for index, line in enumerate(lines):
        if index >= len(answers):
            fail(index, "no answer")
            continue
        answer = answers[index]
        if malformed[index]:
            if answer is not None:
                fail(index, "malformed line got a decision")
            continue
        if not isinstance(answer, dict):
            fail(index, "valid line got no decision")
            continue
        sent = json.loads(line)
        if answer.get("id") != sent["id"] or answer.get("vehicle") != sent["vehicle"]:
            fail(index, f"answer {answer.get('id')!r} out of order")
            continue
        threshold, stop = float(answer["threshold"]), stops[index]
        if answer["cost"] != online_cost(stop, threshold):
            fail(index, f"cost {answer['cost']!r} is not the online cost of "
                        f"threshold {threshold!r} on stop {stop!r}")
            continue
        if index < len(reference) and answer != reference[index]:
            fail(index, "decision differs from the in-process reference")
            continue
        cost += answer["cost"]
        offline += min(stop, BREAK_EVEN)
    if len(answers) > len(lines):
        fail(len(lines), f"{len(answers) - len(lines)} answers too many")
    digest_match = digest(answers) == digest(reference)
    if not digest_match and not failed:
        fail(0, "decision digest differs from the in-process reference")
    return {"failed": failed, "problems": problems, "cost": cost,
            "offline": offline, "digest_match": digest_match}
