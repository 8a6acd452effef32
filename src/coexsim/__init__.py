"""coexsim: deterministic discrete-event simulation of WiMAX/WiFi coexistence.

Models adjacent-band interference between a scheduled TDM network and
CSMA/CA contenders at desk scale, CTS-to-self frame reservation with
adaptive pacing, power sizing and performance gating, and a three-state
transmit/receive arbiter for co-located radios on one platform.
"""

from .medium import (DeliveryOutcome, MediumModel, PathLossModel,
                     Position, RadioInterface, SpillageTable, Transmission,
                     path_loss, received_power, required_isolation, resolve_deliveries)
from .engine import Engine, LinkStats, RunResult, jain_index, run
from .scenario import ScenarioConfig, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "DeliveryOutcome", "Engine", "LinkStats", "MediumModel",
    "PathLossModel", "Position", "RadioInterface", "RunResult",
    "ScenarioConfig", "ScenarioError", "SpillageTable", "Transmission",
    "jain_index", "load_scenario", "parse_scenario", "path_loss",
    "received_power", "required_isolation", "resolve_deliveries", "run",
]
