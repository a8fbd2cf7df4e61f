"""Analytical models: security (Table II), circuit timing (Table III),
area and power (Section VII-D, Figure 12), plus the Monte Carlo
adversarial-pattern driver (:func:`simulate_defense`, one campaign
against any mitigation) validating the closed forms.
"""

from repro.analysis.area import AreaModel, AreaReport
from repro.analysis.circuit import CircuitModel, TableIII
from repro.analysis.montecarlo import MonteCarloResult, simulate_defense
from repro.analysis.power import PowerModel, PowerReport, SystemPowerModel
from repro.analysis.security import (
    SecurityAnalysis,
    SecurityParams,
    bit_flip_probability,
)

__all__ = [
    "AreaModel",
    "AreaReport",
    "CircuitModel",
    "MonteCarloResult",
    "PowerModel",
    "PowerReport",
    "SecurityAnalysis",
    "SecurityParams",
    "SystemPowerModel",
    "TableIII",
    "bit_flip_probability",
    "simulate_defense",
]
