"""Synthetic drive-cycle generation: road networks, signals, congestion,
driver behaviour and the trip simulator."""

from .._lazy import lazy_exports

__all__ = [
    "TrafficSignal",
    "RoadNetwork",
    "grid_network",
    "CongestionModel",
    "DriverProfile",
    "DriveCycleSimulator",
    "TripResult",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".driver": ("DriverProfile",),
    ".road": ("RoadNetwork", "grid_network"),
    ".signals": ("TrafficSignal",),
    ".simulator": ("DriveCycleSimulator", "TripResult"),
    ".traffic": ("CongestionModel",),
})
