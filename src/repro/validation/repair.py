"""Validation policies and the deterministic repair/quarantine engine.

Three policies govern what happens when a record fails a check:

* ``strict`` — raise :class:`~repro.errors.DataValidationError` with
  file/line provenance at the first error.  The default everywhere, so
  behaviour is unchanged for clean data and loudly typed for dirty data.
* ``repair`` — drop the offending record (or substitute a documented
  deterministic default for structural fields) and log an
  :class:`~repro.validation.report.Issue`.  The rules are pure functions
  of the input file, so two runs over the same bytes repair identically
  and results stay reproducible.
* ``quarantine`` — like ``repair``, but the dropped record is also
  diverted verbatim to a sidecar file next to its source
  (``<file>.quarantine.csv`` / ``<file>.quarantine.json``) so nothing is
  silently lost; the sidecar is truncated at the start of each pass.

Warnings (severity ``"warning"``) are reported under every policy and
never raise or drop.
"""

from __future__ import annotations

import csv
import json
from enum import Enum
from pathlib import Path

from ..errors import DataValidationError, InvalidParameterError
from .report import Issue, ValidationReport

__all__ = [
    "Policy",
    "resolve_policy",
    "PolicyEnforcer",
    "CsvQuarantineWriter",
    "JsonQuarantineWriter",
    "clean_stop_lengths",
]


class Policy(str, Enum):
    """How validation failures are handled (see module docstring)."""

    STRICT = "strict"
    REPAIR = "repair"
    QUARANTINE = "quarantine"


def resolve_policy(policy) -> Policy:
    """Coerce a policy name (or ``Policy``) to a :class:`Policy` member."""
    if isinstance(policy, Policy):
        return policy
    try:
        return Policy(str(policy).lower())
    except ValueError:
        valid = ", ".join(member.value for member in Policy)
        raise InvalidParameterError(
            f"unknown validation policy {policy!r}; expected one of: {valid}"
        ) from None


class CsvQuarantineWriter:
    """Lazily creates ``<source>.quarantine.csv`` and appends bad rows.

    Columns: ``line``, ``check``, then the raw fields of the offending
    row — enough to reconstruct, audit or re-ingest every diverted
    record.  The file is only created when the first record arrives.
    """

    def __init__(self, source: Path, report: ValidationReport) -> None:
        self.path = source.with_name(source.name + ".quarantine.csv")
        self._report = report
        self._handle = None
        self._writer = None
        self._seen_lines: set[int | None] = set()

    def write(self, line: int | None, check: str, row: list[str]) -> None:
        # One sidecar row per source record, keyed by its first finding.
        if line is not None and line in self._seen_lines:
            return
        self._seen_lines.add(line)
        if self._writer is None:
            self._handle = open(self.path, "w", newline="")
            self._writer = csv.writer(self._handle)
            self._writer.writerow(["line", "check", "fields..."])
            self._report.add_quarantine_path(self.path)
        self._writer.writerow(["" if line is None else line, check, *row])
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class JsonQuarantineWriter:
    """Collects bad JSON records and writes ``<source>.quarantine.json``.

    Format: a JSON array of ``{"index", "check", "record"}`` objects
    (record serialized with ``default=repr`` so even unserializable
    garbage is preserved as text).
    """

    def __init__(self, source: Path, report: ValidationReport) -> None:
        self.path = source.with_name(source.name + ".quarantine.json")
        self._report = report
        self._records: list[dict] = []
        self._seen_indices: set[int | None] = set()

    def write(self, index: int | None, check: str, record) -> None:
        if index is not None and index in self._seen_indices:
            return
        self._seen_indices.add(index)
        self._records.append({"index": index, "check": check, "record": record})

    def close(self) -> None:
        if self._records:
            self.path.write_text(
                json.dumps(self._records, indent=2, default=repr)
            )
            self._report.add_quarantine_path(self.path)


class PolicyEnforcer:
    """Applies one policy to a stream of check results.

    One enforcer per source file; ingestion code calls :meth:`flag` for
    every failed check and keeps the record only when it returns True.
    """

    def __init__(
        self,
        policy: Policy | str = Policy.STRICT,
        report: ValidationReport | None = None,
        source: str | Path | None = None,
        quarantine_writer=None,
    ) -> None:
        self.policy = resolve_policy(policy)
        self.report = report if report is not None else ValidationReport(self.policy.value)
        if self.report.policy is None:
            self.report.policy = self.policy.value
        self.source = str(source) if source is not None else None
        if self.source is not None:
            self.report.add_source(self.source)
        self._quarantine_writer = quarantine_writer

    def attach_quarantine_writer(self, writer) -> None:
        """Install the sidecar writer (needs the enforcer's report first)."""
        self._quarantine_writer = writer

    def flag(
        self,
        check: str,
        message: str,
        *,
        line: int | None = None,
        record=None,
        severity: str = "error",
        repaired: bool = False,
    ) -> bool:
        """Record one failed check; returns True when the record is kept.

        ``repaired=True`` marks a structural fix (a field replaced by its
        documented default) rather than a drop: the record is kept under
        ``repair``/``quarantine`` and the issue logged as ``repaired``.
        Warnings are always kept and never raise.
        """
        if severity == "warning":
            self.report.add(
                Issue(check, message, self.source, line, "reported", "warning")
            )
            return True
        if self.policy is Policy.STRICT:
            self.report.add(Issue(check, message, self.source, line, "raised"))
            raise DataValidationError(
                f"{self.source or 'input'}"
                + (f", line {line}" if line is not None else "")
                + f": {message}",
                check=check,
                source=self.source,
                line=line,
            )
        if repaired:
            self.report.add(Issue(check, message, self.source, line, "repaired"))
            return True
        if self.policy is Policy.QUARANTINE and self._quarantine_writer is not None:
            self._quarantine_writer.write(line, check, record)
            self.report.add(Issue(check, message, self.source, line, "quarantined"))
        else:
            self.report.add(Issue(check, message, self.source, line, "dropped"))
        return False

    def close(self) -> None:
        if self._quarantine_writer is not None:
            self._quarantine_writer.close()


def clean_stop_lengths(
    stop_lengths,
    policy: Policy | str = Policy.STRICT,
    report: ValidationReport | None = None,
    source: str | None = "stop-lengths",
) -> np.ndarray:
    """Validate an in-memory stop-length array under a policy.

    The array-level twin of the CSV row checks: non-finite or negative
    values raise under ``strict`` and are dropped (and logged with their
    0-based index) under ``repair``/``quarantine`` — there is no sidecar
    file for in-memory arrays, so both non-strict policies behave as
    ``repair`` here.  Returns the cleaned array.
    """
    import numpy as np

    enforcer = PolicyEnforcer(policy, report, source)
    y = np.asarray(stop_lengths, dtype=float).ravel()
    enforcer.report.records_checked += int(y.size)
    bad = ~np.isfinite(y) | (y < 0.0)
    if not bad.any():
        return y
    for index in np.flatnonzero(bad):
        value = float(y[index])
        check = "negative-duration" if np.isfinite(value) else "non-finite-duration"
        enforcer.flag(
            check,
            f"stop length at index {index} is {value!r}",
            line=int(index),
            record=[repr(float(value))],
        )
    return y[~bad]
