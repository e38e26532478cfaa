"""Seeded Monte Carlo campaigns over randomized cluster channels.

Each trial draws an independent channel realization from a per-trial
random stream derived from the campaign master seed, evaluates the bare
physical channel and the designed pattern channel on a common SNR grid,
and aggregates per-scheme capacity statistics together with the analytic
ideal upper bound. Results are a pure function of the scenario; worker
count and scheduling never change them.
"""

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cfpa import design_pattern
from .channel import (
    ILL_MIN_CLUSTERS,
    ArrayGeometry,
    assemble_physical,
    condition_profile,
    sample_cluster_paths,
)
from .errors import CampaignError, InvalidInputError, PrMimoError
from .pattern import assemble_pattern_channel, capacity

SCHEMES = ("physical", "pattern", "ideal")

# Campaigns abort when more than this fraction of trials fails; silently
# averaging over survivors would bias the statistics.
FAILURE_THRESHOLD = 0.01


def _default_snr_grid():
    return np.arange(-10.0, 20.0 + 1e-9, 5.0)


@dataclass
class Scenario:
    """One reproducible experiment configuration."""

    geometry: ArrayGeometry
    n_cl: int = 10
    n_ray: int = 8
    condition: str = "ill"
    angle_spread: float = np.deg2rad(3.0)
    snr_db: np.ndarray = field(default_factory=_default_snr_grid)
    trials: int = 1000
    master_seed: int = 12345

    def __post_init__(self):
        self.snr_db = np.atleast_1d(np.asarray(self.snr_db, dtype=float))
        if self.snr_db.size < 1:
            raise InvalidInputError("snr grid must be nonempty")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.angle_spread < 0:
            raise InvalidInputError("angle spread must be nonnegative")
        if self.condition not in ("good", "ill"):
            raise InvalidInputError(f"unknown condition {self.condition!r}")
        if self.n_cl < 1 or self.n_ray < 1:
            raise InvalidInputError("cluster and ray counts must be >= 1")
        if self.condition == "ill" and self.n_cl < ILL_MIN_CLUSTERS:
            raise InvalidInputError(
                f"ill-conditioned profile needs n_cl >= {ILL_MIN_CLUSTERS}"
            )


@dataclass
class CapacityCurve:
    """Per-SNR capacity statistics for one scheme.

    ``trials`` is the number of realizations averaged (0 marks the
    analytic ideal curve, which has no randomness and zero spread).
    """

    scheme: str
    snr_db: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    trials: int

    def __post_init__(self):
        self.snr_db = np.atleast_1d(np.asarray(self.snr_db, dtype=float))
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if not (self.snr_db.shape == self.mean.shape == self.std.shape):
            raise InvalidInputError("curve arrays must share one shape")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise InvalidInputError("curve statistics must be finite")


def trial_rng(master_seed, trial_index):
    """Independent per-trial generator, a pure function of (seed, index).

    The stream is derived by hashing the master seed with the trial index
    as a spawn key, so trials can run in any order on any worker and
    still reproduce bit-identically.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(int(trial_index),))
    return np.random.default_rng(seq)


def draw_paths(scenario, trial_index):
    """Sample the trial's scattering realization.

    Draw order within the trial stream: cluster power profile (randomized
    only for the good-conditioned regime), cluster mean departures,
    cluster mean arrivals, then the per-ray path set.
    """
    rng = trial_rng(scenario.master_seed, trial_index)
    profile = condition_profile(
        scenario.condition,
        scenario.geometry,
        scenario.n_cl,
        scenario.n_ray,
        scenario.angle_spread,
        rng,
    )
    means_aod = rng.uniform(-np.pi / 2, np.pi / 2, scenario.n_cl)
    means_aoa = rng.uniform(-np.pi / 2, np.pi / 2, scenario.n_cl)
    return sample_cluster_paths(profile, means_aod, means_aoa, rng)


def ideal_capacity(geometry, snr):
    """Capacity of the maximum-capacity reference channel (analytic).

    The reference spreads the full power budget evenly over n_r equal
    singular values, giving ``n_r * log2(1 + snr*n_t/n_r)``. Accepts a
    scalar or an array of linear SNR values.
    """
    snr = np.asarray(snr, dtype=float)
    return geometry.n_r * np.log2(1.0 + snr * geometry.n_t / geometry.n_r)


def run_trial(scenario, trial_index, safeguard=False):
    """Evaluate one channel realization on the scenario's SNR grid.

    Returns ``(physical, pattern)`` capacity arrays in bits/s/Hz. With
    ``safeguard=True`` the designed pattern falls back to the neutral
    all-ones pattern (the physical channel) whenever the design loses to
    the physical channel at the highest grid SNR; the default leaves the
    heuristic unguarded so improvements are measured, not enforced.
    """
    if not 0 <= trial_index < scenario.trials:
        raise InvalidInputError(
            f"trial index {trial_index} outside [0, {scenario.trials})"
        )
    geometry = scenario.geometry
    paths = draw_paths(scenario, trial_index)
    snr = 10.0 ** (scenario.snr_db / 10.0)

    h_physical = assemble_physical(geometry, paths)
    physical = capacity(h_physical, snr)

    pattern, _, _ = design_pattern(geometry, paths)
    h_pattern = assemble_pattern_channel(geometry, paths, pattern)
    designed = capacity(h_pattern, snr)

    if safeguard:
        reference = int(np.argmax(snr))
        if designed[reference] < physical[reference]:
            designed = physical.copy()
    return physical, designed


def _safe_trial(args):
    scenario, index, safeguard = args
    try:
        physical, designed = run_trial(scenario, index, safeguard=safeguard)
    except PrMimoError as exc:  # failed trials are counted, never averaged
        return index, None, None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # anything else is a bug: stop and say where
        raise CampaignError(
            f"trial {index} (master_seed {scenario.master_seed}) raised "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return index, physical, designed, None


def run_campaign(scenario, schemes=SCHEMES, workers=1, safeguard=False):
    """Run all trials and aggregate one capacity curve per scheme.

    Trials execute on a pool of ``workers`` processes (serially for
    ``workers <= 1``), which receive them in contiguous chunks, and are
    reduced in trial order, so the output is byte-reproducible for a
    fixed scenario regardless of parallelism.
    Trials that raise a ``PrMimoError`` are excluded and counted; more
    than 1% of failures aborts with ``CampaignError``, and so does any
    other exception at once, naming the master seed and the trial index.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise InvalidInputError("at least one scheme is required")
    unknown = set(schemes) - set(SCHEMES)
    if unknown:
        raise InvalidInputError(f"unknown schemes: {sorted(unknown)}")

    curves = []
    if "physical" in schemes or "pattern" in schemes:
        outcomes = [None] * scenario.trials
        jobs = ((scenario, index, safeguard) for index in range(scenario.trials))
        if workers <= 1:
            for job in jobs:
                result = _safe_trial(job)
                outcomes[result[0]] = result
        else:
            # Contiguous chunks, about eight per worker: few enough tasks
            # that dispatch stays cheap, enough to balance uneven trials.
            chunk = -(-scenario.trials // (8 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(_safe_trial, jobs, chunksize=chunk):
                    outcomes[result[0]] = result

        physical_rows, pattern_rows, failures = [], [], []
        for index, physical, designed, error in outcomes:
            if error is not None:
                failures.append((index, error))
                continue
            physical_rows.append(physical)
            pattern_rows.append(designed)
        if len(failures) > FAILURE_THRESHOLD * scenario.trials or not physical_rows:
            raise CampaignError(
                f"{len(failures)} of {scenario.trials} trials failed; "
                f"first failure: trial {failures[0][0]}: {failures[0][1]}"
            )
        if failures:
            warnings.warn(
                f"excluded {len(failures)} failed trials of {scenario.trials}",
                RuntimeWarning,
                stacklevel=2,
            )
        included = len(physical_rows)
        for scheme, rows in (("physical", physical_rows), ("pattern", pattern_rows)):
            if scheme in schemes:
                samples = np.asarray(rows)
                curves.append(
                    CapacityCurve(
                        scheme=scheme,
                        snr_db=scenario.snr_db.copy(),
                        mean=samples.mean(axis=0),
                        std=samples.std(axis=0),
                        trials=included,
                    )
                )

    if "ideal" in schemes:
        snr = 10.0 ** (scenario.snr_db / 10.0)
        curves.append(
            CapacityCurve(
                scheme="ideal",
                snr_db=scenario.snr_db.copy(),
                mean=ideal_capacity(scenario.geometry, snr),
                std=np.zeros_like(scenario.snr_db),
                trials=0,
            )
        )
    return curves
