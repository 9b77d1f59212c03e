"""The Appendix C vehicle cost model: idling cost, restart cost and the
break-even interval derivation."""

from .._lazy import lazy_exports

__all__ = [
    "EngineSpec",
    "FORD_FUSION_2011",
    "CC_PER_GALLON",
    "StarterModel",
    "CONVENTIONAL_STARTER",
    "SSV_STARTER",
    "BatteryModel",
    "STOP_START_BATTERY",
    "TABLE1_STOPS_PER_DAY_BOUND",
    "EmissionInventory",
    "EmissionPricing",
    "ARGONNE_MEASUREMENTS",
    "SWEDEN_NOX_PRICING",
    "BreakEvenBreakdown",
    "VehicleCostModel",
    "ssv_cost_model",
    "conventional_cost_model",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".battery": ("TABLE1_STOPS_PER_DAY_BOUND", "BatteryModel", "STOP_START_BATTERY"),
    ".costmodel": (
        "BreakEvenBreakdown", "VehicleCostModel", "conventional_cost_model",
        "ssv_cost_model",
    ),
    ".emissions": (
        "ARGONNE_MEASUREMENTS", "SWEDEN_NOX_PRICING", "EmissionInventory",
        "EmissionPricing",
    ),
    ".engine": ("CC_PER_GALLON", "FORD_FUSION_2011", "EngineSpec"),
    ".starter": ("CONVENTIONAL_STARTER", "SSV_STARTER", "StarterModel"),
})
