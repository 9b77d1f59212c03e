"""Driving traces: stop events, speed profiles, extraction and IO."""

from .._lazy import lazy_exports

__all__ = [
    "SECONDS_PER_DAY",
    "StopEvent",
    "Trip",
    "DrivingTrace",
    "SpeedTrace",
    "extract_stops",
    "segment_trips",
    "speed_trace_from_samples",
    "trace_from_daily_log",
    "write_stops_csv",
    "read_stops_csv",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_json",
    "read_traces_json",
    "TraceSummary",
    "summarize_trace",
    "stops_per_day_table",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".events": ("SECONDS_PER_DAY", "DrivingTrace", "StopEvent", "Trip"),
    ".io": (
        "read_stops_csv", "read_traces_json", "trace_from_dict", "trace_to_dict",
        "write_stops_csv", "write_traces_json",
    ),
    ".segmentation": (
        "segment_trips", "speed_trace_from_samples", "trace_from_daily_log",
    ),
    ".speed": ("SpeedTrace", "extract_stops"),
    ".summarize": ("TraceSummary", "stops_per_day_table", "summarize_trace"),
})
