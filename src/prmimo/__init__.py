"""Capacity-oriented radiation pattern design for reconfigurable MIMO.

Generates geometric multi-path channels, designs a nonnegative transmit
pattern sampling matrix (sequential correlation modification followed by
closed-form power allocation), and evaluates channel capacity against
physical-channel and ideal-channel baselines via seeded Monte Carlo
campaigns.
"""

from .cfpa import allocate_power, design_pattern
from .channel import ArrayGeometry, PathSet
from .errors import (
    CampaignError,
    InvalidInputError,
    NumericalFailureError,
    PrMimoError,
)
from .montecarlo import (
    CapacityCurve,
    Scenario,
    draw_paths,
    run_campaign,
    run_trials,
)
from .pattern import PatternMatrix, assemble_pattern_channel, capacity, ideal_capacity
from .sof import SofState, run_sof

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "CampaignError",
    "CapacityCurve",
    "InvalidInputError",
    "NumericalFailureError",
    "PathSet",
    "PatternMatrix",
    "PrMimoError",
    "Scenario",
    "SofState",
    "allocate_power",
    "assemble_pattern_channel",
    "capacity",
    "design_pattern",
    "draw_paths",
    "ideal_capacity",
    "run_campaign",
    "run_sof",
    "run_trials",
]
