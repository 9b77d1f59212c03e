"""Data validation, repair and quarantine — the ingestion safety layer.

Raw telemetry arrives dirty: NaN durations, negative stops, clock skew,
truncated files, manifests that disagree with their stop tables.  This
package is the single place those problems are detected and handled:

* :mod:`~repro.validation.schemas` — the check catalog (pure functions,
  stable check names);
* :mod:`~repro.validation.repair` — the ``strict`` / ``repair`` /
  ``quarantine`` policies and the deterministic drop/divert engine;
* :mod:`~repro.validation.report` — :class:`ValidationReport`, printable
  and emitted into the run ledger.

Every ingestion point routes through here: stop CSVs and trace JSON
(:mod:`repro.traces.io`), raw speed logs
(:mod:`repro.traces.segmentation`), fleet datasets
(:mod:`repro.fleet.io`), and the distribution constructors
(:mod:`repro.distributions`).  See ``docs/data-validation.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "Policy",
    "resolve_policy",
    "PolicyEnforcer",
    "CsvQuarantineWriter",
    "JsonQuarantineWriter",
    "clean_stop_lengths",
    "Issue",
    "ValidationReport",
    "CHECKS",
    "stop_row_findings",
    "stop_order_finding",
    "stop_event_findings",
    "trace_document_findings",
    "manifest_area_findings",
    "break_even_findings",
    "speed_sample_findings",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".repair": (
        "CsvQuarantineWriter", "JsonQuarantineWriter", "Policy", "PolicyEnforcer",
        "clean_stop_lengths", "resolve_policy",
    ),
    ".report": ("Issue", "ValidationReport"),
    ".schemas": (
        "CHECKS", "break_even_findings", "manifest_area_findings",
        "speed_sample_findings", "stop_event_findings", "stop_order_finding",
        "stop_row_findings", "trace_document_findings",
    ),
})
