"""Capacity-oriented radiation pattern design for reconfigurable MIMO.

Generates geometric multi-path channels, designs a nonnegative transmit
pattern sampling matrix (sequential correlation modification followed by
closed-form power allocation), and evaluates channel capacity against
physical-channel and ideal-channel baselines via seeded Monte Carlo
campaigns.
"""

from .cfpa import allocate_power, cfpa_weights, design_pattern
from .channel import ArrayGeometry, PathSet, steering_matrix
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
    trial_rng,
)
from .pattern import (
    PatternMatrix,
    assemble_pattern_channel,
    assemble_physical,
    capacity,
    ideal_capacity,
)
from .sof import (
    SofState,
    SubchannelGram,
    run_sof,
    solve_modification_vector,
    subchannel_gram,
)

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
    "SubchannelGram",
    "allocate_power",
    "assemble_pattern_channel",
    "assemble_physical",
    "capacity",
    "cfpa_weights",
    "design_pattern",
    "draw_paths",
    "ideal_capacity",
    "run_campaign",
    "run_sof",
    "run_trials",
    "solve_modification_vector",
    "steering_matrix",
    "subchannel_gram",
    "trial_rng",
]
