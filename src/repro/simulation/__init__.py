"""Event-level stop-start controller simulation and cost accounting."""

from .._lazy import lazy_exports

__all__ = [
    "CostLedger",
    "StopDecision",
    "StopStartController",
    "ObservingController",
    "OfflineController",
    "SimulationResult",
    "simulate_stops",
    "simulate_trace",
    "realized_cr",
    "MultistateStopRecord",
    "MultistateSimulationResult",
    "EnvelopeController",
    "RandomizedMultislopeController",
    "simulate_multistate",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".accounting": ("CostLedger",),
    ".controller": (
        "ObservingController", "OfflineController", "StopDecision",
        "StopStartController",
    ),
    ".engine_sim": (
        "SimulationResult", "realized_cr", "simulate_stops", "simulate_trace",
    ),
    ".multistate": (
        "EnvelopeController", "MultistateSimulationResult", "MultistateStopRecord",
        "RandomizedMultislopeController", "simulate_multistate",
    ),
})
