"""The validation check catalog: pure record/structure checks.

Every check has a stable kebab-case name (the ``check`` field of
:class:`~repro.validation.report.Issue` and the key of quarantine rows)
listed in :data:`CHECKS`.  The functions here are *pure*: they inspect
one record or structure and return findings; policy handling (raise /
drop / quarantine) lives in :mod:`repro.validation.repair` and the
ingestion call sites.

A finding is a ``(check, message)`` pair; record-level helpers also
return the parsed values so ingestion does not parse twice.
"""

from __future__ import annotations

import math

__all__ = [
    "CHECKS",
    "stop_row_findings",
    "stop_order_finding",
    "stop_event_findings",
    "trace_document_findings",
    "manifest_area_findings",
    "break_even_findings",
    "speed_sample_findings",
]

#: Catalog: check name -> what it guards against.  Rendered in
#: ``docs/data-validation.md`` and the ``data doctor`` output.
CHECKS = {
    "bad-column-count": "CSV row does not have exactly the 3 schema columns",
    "empty-vehicle-id": "vehicle_id field is empty or whitespace",
    "unparseable-duration": "duration field is not a number",
    "non-finite-duration": "duration is NaN or infinite",
    "negative-duration": "duration is negative",
    "unparseable-start-time": "start_time field is not a number",
    "non-finite-start-time": "start_time is NaN or infinite",
    "negative-start-time": "start_time is negative",
    "out-of-order-stop": "stop starts before the vehicle's previous stop",
    "overlapping-stop": "stop starts before the previous stop ended",
    "empty-vehicle": "vehicle has no (remaining) stops",
    "empty-table": "file contains a header but no data rows",
    "malformed-document": "JSON trace document is structurally invalid",
    "duplicate-vehicle-id": "vehicle id listed more than once in the manifest",
    "scale-factor-count-mismatch": "scale_factors length differs from vehicle_ids",
    "bad-scale-factor": "scale factor is not a positive finite number",
    "vehicle-count-mismatch": "manifest vehicle_count disagrees with vehicle_ids",
    "missing-vehicle-stops": "manifest lists a vehicle absent from the stop table",
    "bad-recording-days": "recording_days is not a positive finite number",
    "suspicious-break-even": "break-even interval outside plausible seconds range",
    "non-positive-break-even": "break-even interval is not a positive finite number",
    "non-finite-speed": "speed sample is NaN or infinite",
    "negative-speed": "speed sample is negative",
    "inconsistent-column-count": "CSV row width differs from the header",
    "undecodable-bytes": "file is not valid UTF-8 text",
    "malformed-event": "stop event is not a JSON object with the schema fields",
    "duplicate-event-id": "stop event id was already applied (redelivery)",
    "non-monotonic-timestamp": "stop event timestamp runs behind the vehicle's clock",
}


def stop_row_findings(row: list[str]):
    """Check one stop-CSV row.

    Returns ``(findings, vehicle_id, start_time, duration)``; the parsed
    values are ``None`` when their field failed.  A row with any finding
    must not enter the dataset.
    """
    findings: list[tuple[str, str]] = []
    if len(row) != 3:
        return (
            [("bad-column-count", f"expected 3 columns, got {len(row)}")],
            None,
            None,
            None,
        )
    vehicle_id, start_text, duration_text = row
    if not vehicle_id.strip():
        findings.append(("empty-vehicle-id", "empty vehicle_id"))
        vehicle_id = None
    start_time = _parse_float(start_text, "start-time", findings)
    duration = _parse_float(duration_text, "duration", findings)
    return findings, vehicle_id, start_time, duration


def _parse_float(text: str, field: str, findings: list) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        findings.append((f"unparseable-{field}", f"bad {field} {text!r}"))
        return None
    if not math.isfinite(value):
        findings.append((f"non-finite-{field}", f"{field} is {value!r}"))
        return None
    if value < 0.0:
        findings.append((f"negative-{field}", f"{field} is {value!r}"))
        return None
    return value


def stop_order_finding(
    prev_start: float, prev_end: float, start_time: float
) -> tuple[str, str] | None:
    """Check a stop against the vehicle's previous stop (both valid rows).

    The *later* row is the offending one: telemetry clock skew shows up
    as a record whose timestamp runs backwards (out-of-order) or into the
    previous stop (overlap).
    """
    if start_time < prev_start:
        return (
            "out-of-order-stop",
            f"start_time {start_time!r} precedes previous stop start {prev_start!r}",
        )
    if start_time < prev_end:
        return (
            "overlapping-stop",
            f"start_time {start_time!r} falls inside previous stop ending {prev_end!r}",
        )
    return None


#: Required fields of one advisor-service stop event and their meaning.
#: ``id`` is the delivery-idempotency key, ``vehicle`` routes the event
#: to its session, ``t`` is the stop's start timestamp (seconds, any
#: monotone per-vehicle clock), ``stop`` the completed stop length (s).
STOP_EVENT_FIELDS = ("id", "vehicle", "t", "stop")


def stop_event_findings(record):
    """Check one advisor-service stop event (a parsed JSON value).

    Returns ``(findings, event)`` where ``event`` is the validated
    ``(id, vehicle, t, stop)`` tuple, or ``None`` when any finding makes
    the record unusable.  Ordering (monotone ``t``) and idempotency
    (fresh ``id``) are *stateful* checks performed by the session, not
    here — this function is pure per-record structure and value
    validation.
    """
    if not isinstance(record, dict):
        return (
            [("malformed-event", f"expected an object, got {type(record).__name__}")],
            None,
        )
    findings: list[tuple[str, str]] = []
    for field in STOP_EVENT_FIELDS:
        if field not in record:
            findings.append(("malformed-event", f"missing {field!r}"))
    if findings:
        return findings, None
    event_id = str(record["id"])
    vehicle = str(record["vehicle"])
    if not event_id.strip():
        findings.append(("malformed-event", "empty event id"))
    if not vehicle.strip():
        findings.append(("empty-vehicle-id", "empty vehicle id"))
    timestamp = _parse_float(str(record["t"]), "start-time", findings)
    stop_length = _parse_float(str(record["stop"]), "duration", findings)
    if findings:
        return findings, None
    return findings, (event_id, vehicle, timestamp, stop_length)


def trace_document_findings(document) -> list[tuple[str, str]]:
    """Structural checks for one JSON trace document.

    Detailed value validation is delegated to the
    :class:`~repro.traces.events` constructors; this catches the shapes
    that would crash them with untyped errors (non-dict documents,
    missing keys, non-list trips).
    """
    if not isinstance(document, dict):
        return [("malformed-document", f"expected an object, got {type(document).__name__}")]
    findings = []
    if "vehicle_id" not in document:
        findings.append(("malformed-document", "missing 'vehicle_id'"))
    trips = document.get("trips")
    if not isinstance(trips, list):
        findings.append(
            ("malformed-document", f"'trips' must be an array, got {type(trips).__name__}")
        )
    return findings


def manifest_area_findings(area: str, info) -> list[tuple[str, str]]:
    """Structural checks for one area entry of a dataset manifest.

    Per-vehicle issues (duplicates, missing stop rows, bad scale factors)
    are handled record-by-record in ``load_fleet_dataset`` so the repair
    policy can drop individual vehicles; this guards the aggregate
    fields.
    """
    findings = []
    if not isinstance(info, dict):
        return [("malformed-document", f"area {area!r}: entry must be an object")]
    ids = info.get("vehicle_ids")
    if not isinstance(ids, list):
        findings.append(
            ("malformed-document", f"area {area!r}: 'vehicle_ids' must be an array")
        )
        return findings
    scales = info.get("scale_factors")
    if scales is not None and not isinstance(scales, list):
        findings.append(
            ("malformed-document", f"area {area!r}: 'scale_factors' must be an array")
        )
    elif scales is not None and len(scales) != len(ids):
        findings.append(
            (
                "scale-factor-count-mismatch",
                f"area {area!r}: {len(scales)} scale_factors for {len(ids)} vehicle_ids",
            )
        )
    count = info.get("vehicle_count")
    if count is not None and count != len(ids):
        findings.append(
            (
                "vehicle-count-mismatch",
                f"area {area!r}: vehicle_count={count!r} but {len(ids)} vehicle_ids",
            )
        )
    days = info.get("recording_days", 7.0)
    if not isinstance(days, (int, float)) or not math.isfinite(days) or days <= 0.0:
        findings.append(
            ("bad-recording-days", f"area {area!r}: recording_days is {days!r}")
        )
    return findings


#: Plausible seconds range for a vehicle break-even interval.  The
#: paper's values are 28 s (SSV) and 47 s (conventional); anything
#: outside [1, 600] s most likely carries a unit mistake (minutes, or a
#: cents-scale cost) and is flagged as a warning.
BREAK_EVEN_PLAUSIBLE = (1.0, 600.0)


def break_even_findings(break_even: float) -> list[tuple[str, str, str]]:
    """Unit-sanity checks on ``B``; returns ``(check, message, severity)``.

    Non-positive or non-finite values are errors (the solver would reject
    them anyway); plausible-range violations are warnings.
    """
    try:
        b = float(break_even)
    except (TypeError, ValueError):
        return [
            (
                "non-positive-break-even",
                f"break-even interval {break_even!r} is not a number",
                "error",
            )
        ]
    if not math.isfinite(b) or b <= 0.0:
        return [
            (
                "non-positive-break-even",
                f"break-even interval must be a positive finite number, got {b!r}",
                "error",
            )
        ]
    lo, hi = BREAK_EVEN_PLAUSIBLE
    if not lo <= b <= hi:
        return [
            (
                "suspicious-break-even",
                f"break-even interval {b!r} s is outside the plausible "
                f"[{lo:g}, {hi:g}] s range — check the unit (seconds expected)",
                "warning",
            )
        ]
    return []


def speed_sample_findings(speeds: np.ndarray) -> list[tuple[int, str, str]]:
    """Per-sample findings for a raw speed array: ``(index, check, message)``."""
    import numpy as np

    y = np.asarray(speeds, dtype=float).ravel()
    findings = []
    bad = ~np.isfinite(y)
    for index in np.flatnonzero(bad):
        findings.append(
            (int(index), "non-finite-speed", f"speed sample {index} is {float(y[index])!r}")
        )
    negative = np.isfinite(y) & (y < 0.0)
    for index in np.flatnonzero(negative):
        findings.append(
            (int(index), "negative-speed", f"speed sample {index} is {float(y[index])!r}")
        )
    return findings
