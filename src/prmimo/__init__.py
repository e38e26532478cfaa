"""Capacity-oriented radiation pattern design for reconfigurable MIMO.

Generates geometric multi-path channels, designs a nonnegative transmit
pattern sampling matrix (sequential correlation modification followed by
closed-form power allocation), and evaluates channel capacity against
physical-channel and ideal-channel baselines via seeded Monte Carlo
campaigns.
"""

from .cfpa import (
    PowerAllocation,
    allocate_power,
    cfpa_weights,
    design_pattern,
)
from .channel import (
    ArrayGeometry,
    ClusterProfile,
    PathSet,
    assemble_physical,
    condition_profile,
    sample_cluster_paths,
    steering_matrix,
)
from .errors import (
    CampaignError,
    DegenerateChannelError,
    InvalidInputError,
    NumericalFailureError,
    PrMimoError,
)
from .montecarlo import (
    CapacityCurve,
    Scenario,
    draw_paths,
    ideal_capacity,
    run_campaign,
    run_trial,
    run_trials,
    trial_rng,
)
from .numerics import eig_sym, logdet_capacity_kernel
from .pattern import PatternMatrix, assemble_pattern_channel, capacity
from .sof import (
    SofState,
    SubchannelGram,
    correlation_indicator,
    run_sof,
    solve_modification_vector,
    subchannel_gram,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "CampaignError",
    "CapacityCurve",
    "ClusterProfile",
    "DegenerateChannelError",
    "InvalidInputError",
    "NumericalFailureError",
    "PathSet",
    "PatternMatrix",
    "PowerAllocation",
    "PrMimoError",
    "Scenario",
    "SofState",
    "SubchannelGram",
    "allocate_power",
    "assemble_pattern_channel",
    "assemble_physical",
    "capacity",
    "cfpa_weights",
    "condition_profile",
    "correlation_indicator",
    "design_pattern",
    "draw_paths",
    "eig_sym",
    "ideal_capacity",
    "logdet_capacity_kernel",
    "run_campaign",
    "run_sof",
    "run_trial",
    "run_trials",
    "sample_cluster_paths",
    "solve_modification_vector",
    "steering_matrix",
    "subchannel_gram",
    "trial_rng",
]
