"""NREL-like synthetic fleets (the paper's evaluation dataset substitute)."""

from .._lazy import lazy_exports

__all__ = [
    "AreaConfig",
    "AREAS",
    "AREA_NAMES",
    "area_config",
    "FleetGenerator",
    "VehicleRecord",
    "load_area",
    "load_fleets",
    "load_fleets_or_dataset",
    "pooled_stops",
    "total_vehicle_count",
    "validate_fleets",
    "DEFAULT_SEED",
    "save_fleet_dataset",
    "load_fleet_dataset",
    "DailyPattern",
    "DailyFleetGenerator",
    "TimedVehicleRecord",
    "default_daily_pattern",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".areas": ("AREA_NAMES", "AREAS", "AreaConfig", "area_config"),
    ".daily": (
        "DailyFleetGenerator", "DailyPattern", "TimedVehicleRecord",
        "default_daily_pattern",
    ),
    ".generator": ("FleetGenerator", "VehicleRecord"),
    ".io": ("load_fleet_dataset", "save_fleet_dataset"),
    ".nrel": (
        "DEFAULT_SEED", "load_area", "load_fleets", "load_fleets_or_dataset",
        "pooled_stops", "total_vehicle_count", "validate_fleets",
    ),
})
