"""Seeded Monte Carlo campaigns over randomized cluster channels.

Each trial draws an independent channel realization from a per-trial
random stream derived from the campaign master seed, evaluates the bare
physical channel and the designed pattern channel on a common SNR grid,
and aggregates per-scheme capacity statistics together with the analytic
ideal upper bound. Trials that share a path count run in lockstep
batches. Results are a pure function of the scenario; worker count,
batch size and scheduling never change them.
"""

import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cfpa import design_pattern
from .channel import (
    ArrayGeometry,
    _check_clusters,
    assemble_physical,
    channel_factors,
    condition_profile,
    sample_cluster_paths,
    stack_paths,
)
from .errors import CampaignError, InvalidInputError, PrMimoError
from .numerics import one_blas_thread, require_integer, set_blas_threads
from .pattern import assemble_pattern_channel, capacity

SCHEMES = ("physical", "pattern", "ideal")

# Campaigns abort when more than this fraction of trials fails; silently
# averaging over survivors would bias the statistics.
FAILURE_THRESHOLD = 0.01

# Budgets of one lockstep batch (see ``trial_bytes``): its peak memory,
# and the stacks a design step works through. The second limits batches
# below about L = 120 at n_t = 32; its value holds L = 80 to 6 trials,
# as larger batches there raise a campaign's peak RSS (9 trials: +6.7%).
BATCH_STATE_BYTES = 5 << 20
BATCH_STEP_BYTES = 544 << 10


def _default_snr_grid():
    return np.arange(-10.0, 20.0 + 1e-9, 5.0)


def _linear(snr_db):
    # An SNR grid in linear units: the one dB conversion.
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment configuration.

    ``n_cl``, ``n_ray``, ``trials`` and ``master_seed`` are integers;
    numpy integers become ``int``, and a ``bool`` or a float is rejected.
    Fields cannot be assigned once built, and ``snr_db`` is a read-only
    copy of the given grid.
    """

    geometry: ArrayGeometry
    n_cl: int = 10
    n_ray: int = 8
    condition: str = "ill"
    angle_spread: float = np.deg2rad(3.0)
    snr_db: np.ndarray = field(default_factory=_default_snr_grid)
    trials: int = 1000
    master_seed: int = 12345

    def __post_init__(self):
        # Through object, as the dataclass is frozen.
        for name in ("n_cl", "n_ray", "trials", "master_seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        snr_db = np.array(self.snr_db, dtype=float, ndmin=1)
        snr_db.flags.writeable = False
        object.__setattr__(self, "snr_db", snr_db)
        if self.snr_db.size < 1:
            raise InvalidInputError("snr grid must be nonempty")
        if not np.isfinite(self.snr_db).all():
            raise InvalidInputError("snr grid values must be finite")
        # Trials take the grid in linear units, where it must stay positive
        # and finite too.
        with np.errstate(over="ignore"):
            linear = _linear(self.snr_db)
        if not np.all(np.isfinite(linear) & (linear > 0.0)):
            raise InvalidInputError("snr grid overflows or underflows in linear units")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.master_seed < 0:
            raise InvalidInputError(f"master seed must be >= 0, got {self.master_seed}")
        _check_clusters(self.n_cl, self.n_ray, self.angle_spread, self.condition)

    def __setstate__(self, state):
        # Unpickling (as the worker pool does) skips __post_init__ and
        # restores a writeable grid.
        self.__dict__.update(state)
        self.snr_db.flags.writeable = False


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


def trial_bytes(n_paths, n_t):
    """Per-trial bytes of a lockstep batch: ``(peak, step)``.

    ``peak`` bounds what a batch holds at once, per trial, for n_r <= n_t:
    40 L^2 of L x L state (the Gram and receive factor matrices, complex,
    and the squared Gram magnitudes, real), 88 n_t L of n_t x L arrays
    (channel factors, transmit basis, designed columns and the last step's
    coupling columns), 256 L of vectors and 40 n_t^2 for a step's
    eigenproblem. ``step`` is what a step works through on average: the
    eigenproblem and half the last step's coupling columns.
    """
    eigenproblem = 40 * n_t**2
    peak = 40 * n_paths**2 + 88 * n_t * n_paths + 256 * n_paths + eigenproblem
    return peak, eigenproblem + 16 * n_t * n_paths


def batch_size(n_paths, n_t):
    """Trials per lockstep batch for ``n_paths`` paths and ``n_t`` antennas.

    As many as keep the batch's peak (``trial_bytes``) within
    ``BATCH_STATE_BYTES`` and its per-step stacks within
    ``BATCH_STEP_BYTES``, and at least one.
    """
    peak, step = trial_bytes(n_paths, n_t)
    return max(1, int(min(BATCH_STATE_BYTES // peak, BATCH_STEP_BYTES // step)))


def run_trials(scenario, start, stop, safeguard=False):
    """Evaluate trials ``start .. stop-1`` in lockstep on the SNR grid.

    Returns ``(physical, pattern)`` capacity arrays of shape
    (stop - start, SNR points) in bits/s/Hz. Each trial draws its paths
    from its own stream; the rest runs on the stacked batch: one steering
    ``exp`` per array side for both channel assemblies, the lockstep
    design (``design_pattern``) and one eigendecomposition per sweep.
    Row ``i`` is bit-identical to ``run_trial(scenario, start + i)`` and
    to the campaign's row of that trial, under any BLAS thread count of
    the caller: the batch runs on one BLAS thread (the caller's count is
    restored). The batch's memory grows with its size (see
    ``batch_size``). ``safeguard`` acts as in ``run_trial``.
    """
    if not 0 <= start < stop <= scenario.trials:
        raise InvalidInputError(
            f"trial range [{start}, {stop}) is empty or outside [0, {scenario.trials})"
        )
    geometry = scenario.geometry
    snr = _linear(scenario.snr_db)
    with one_blas_thread():
        paths = stack_paths(draw_paths(scenario, index) for index in range(start, stop))
        factors = channel_factors(geometry, paths)
        physical = capacity(assemble_physical(geometry, paths, factors), snr)

        pattern = design_pattern(geometry, paths)[0]
        designed = capacity(assemble_pattern_channel(geometry, paths, pattern, factors), snr)

    if safeguard:
        reference = int(np.argmax(snr))
        lost = designed[:, reference] < physical[:, reference]
        designed = np.where(lost[:, None], physical, designed)
    return physical, designed


def run_trial(scenario, trial_index, safeguard=False):
    """Evaluate one channel realization on the scenario's SNR grid.

    Returns ``(physical, pattern)`` capacity arrays in bits/s/Hz. With
    ``safeguard=True`` the designed pattern falls back to the neutral
    all-ones pattern (the physical channel) whenever the design loses to
    the physical channel at the highest grid SNR; the default leaves the
    heuristic unguarded so improvements are measured, not enforced.
    This is ``run_trials`` on the one trial.
    """
    physical, designed = run_trials(scenario, trial_index, trial_index + 1, safeguard)
    return physical[0], designed[0]


def _run_batch(scenario, start, stop, safeguard):
    """Outcome records ``(index, physical, pattern, error)`` of one batch.

    A failing batch is rerun one trial at a time: a ``PrMimoError`` then
    fails only its own trial, and any other exception is a bug that
    aborts with the trial index.
    """
    try:
        physical, designed = run_trials(scenario, start, stop, safeguard)
    except Exception as exc:
        seed = scenario.master_seed
        if stop - start > 1:
            outcomes = []
            for index in range(start, stop):
                outcomes += _run_batch(scenario, index, index + 1, safeguard)
            if isinstance(exc, PrMimoError):
                return outcomes
            where = f"trials {start}..{stop - 1} as one batch"
        elif isinstance(exc, PrMimoError):  # counted, never averaged
            return [(start, None, None, f"{type(exc).__name__}: {exc}")]
        else:
            where = f"trial {start}"
        raise CampaignError(
            f"{where} (master_seed {seed}) raised {type(exc).__name__}: {exc}"
        ) from exc
    return [
        (index, physical[row], designed[row], None)
        for row, index in enumerate(range(start, stop))
    ]


def _usable_cores():
    # The cores this process may run on: its CPU affinity, where the
    # platform reports one.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# A pool worker's copy of its pool's abort event (see ``_start_worker``).
_worker_abort = None


def _start_worker(abort):
    # Pool initializer, so that it holds under any start method.
    global _worker_abort
    _worker_abort = abort
    set_blas_threads(1)


def _pool_batch(run, start, stop):
    # The batch's outcomes, or none once a batch has failed: a failure
    # sets the abort event, so that the batches not yet started are skipped.
    if _worker_abort.is_set():
        return []
    try:
        return run(start, stop)
    except BaseException:
        _worker_abort.set()
        raise


def _trial_outcomes(scenario, workers, safeguard):
    # Consecutive lockstep batches, so only the campaign's last one is
    # short, on no more workers than batches: one per usable core for
    # ``workers == 1``. One worker is this process; more make a pool that
    # takes the batches in chunks, about eight per worker: few enough
    # tasks that dispatch stays cheap, enough to balance uneven trials.
    # A failed batch stops the workers before their next batch.
    trials = scenario.trials
    size = batch_size(scenario.n_cl * scenario.n_ray, scenario.geometry.n_t)
    starts = range(0, trials, size)
    stops = [min(start + size, trials) for start in starts]
    run = partial(_run_batch, scenario, safeguard=safeguard)
    workers = min(_usable_cores() if workers == 1 else workers, len(starts))
    if workers == 1:
        with one_blas_thread():
            batches = list(map(run, starts, stops))
    else:
        # Imported here, so that a run in this process loads no process
        # machinery.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Event

        # The pool's own map already cancels the chunks it has not handed
        # to a worker; the event skips the ones handed over.
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(Event(),)) as pool:
            chunk = -(-len(starts) // (8 * workers))
            batches = list(pool.map(partial(_pool_batch, run), starts, stops, chunksize=chunk))
    return [outcome for outcomes in batches for outcome in outcomes]


def _check_request(schemes, workers):
    # The request rules, which ``run_campaign`` and the CLI check here:
    # one or more of ``SCHEMES``, on an integer count of workers >= 1.
    workers = require_integer(workers, "workers")
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    schemes = tuple(schemes)
    if not schemes:
        raise InvalidInputError("at least one scheme is required")
    unknown = set(schemes) - set(SCHEMES)
    if unknown:
        raise InvalidInputError(f"unknown schemes: {sorted(unknown)}")
    return schemes, workers


def run_campaign(scenario, schemes=SCHEMES, workers=1, safeguard=False):
    """Run all trials and aggregate one capacity curve per scheme.

    Trials run in consecutive lockstep batches of ``batch_size`` trials
    on ``min(workers, batches)`` processes, where ``workers`` is an
    integer >= 1 and the default, 1, stands for the usable cores: the
    process's CPU affinity (``os.sched_getaffinity``, else
    ``os.cpu_count()``), so ``taskset`` limits them. One process is this
    one; more make a pool that takes the batches in chunks of about
    ``batches / (8 * workers)``. Every batch runs on one BLAS thread, and
    the caller's count is restored. Only the pool imports the process
    machinery. Results are reduced in trial order, so the output is
    byte-reproducible for a fixed scenario regardless of workers,
    batching and the environment's BLAS thread count.
    Trials that raise a ``PrMimoError`` are excluded and counted; more
    than 1% of failures aborts with ``CampaignError``, and so does any
    other exception at once, naming the master seed and the trial index;
    the workers then start no further batch.
    """
    schemes, workers = _check_request(schemes, workers)
    curves = []
    if "physical" in schemes or "pattern" in schemes:
        outcomes = _trial_outcomes(scenario, workers, safeguard)

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
        curves.append(
            CapacityCurve(
                scheme="ideal",
                snr_db=scenario.snr_db.copy(),
                mean=ideal_capacity(scenario.geometry, _linear(scenario.snr_db)),
                std=np.zeros_like(scenario.snr_db),
                trials=0,
            )
        )
    return curves
