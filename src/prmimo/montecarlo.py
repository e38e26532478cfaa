"""Cluster scenarios, their random path sets, and seeded Monte Carlo campaigns.

Each trial draws an independent cluster channel realization from a
per-trial random stream derived from the campaign master seed, evaluates
the bare physical channel and the designed pattern channel on a common
SNR grid, and aggregates per-scheme capacity statistics together with
the analytic ideal upper bound. Trials that share a path count run in
lockstep batches. Results are a pure function of the scenario; worker
count, batch size and scheduling never change them.
"""

import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cfpa import design_pattern
from .channel import HALF_PI, ArrayGeometry, PathSet
from .errors import CampaignError, InvalidInputError, NumericalFailureError
from .numerics import one_blas_thread, require_integer, require_real, set_blas_threads
from .pattern import PatternMatrix, assemble_pattern_channel, capacity, ideal_capacity

SCHEMES = ("physical", "pattern", "ideal")

# The cluster power regimes of ``draw_paths``, and the fewest clusters the
# ill-conditioned one is defined for.
CONDITIONS = ("good", "ill")
ILL_MIN_CLUSTERS = 4

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


def _check_finite_grid(values):
    # The grid rule that ``Scenario`` checks on its grid and the CLI on
    # its start:step:stop, before it counts the points.
    if not np.isfinite(values).all():
        raise InvalidInputError("snr grid values must be finite")


def _check_clusters(n_cl, n_ray, angle_spread, condition):
    # The cluster rules, which ``Scenario`` checks here, so that
    # ``draw_paths`` draws only from checked settings.
    if n_cl < 1 or n_ray < 1:
        raise InvalidInputError("cluster and ray counts must be >= 1")
    if angle_spread < 0:
        raise InvalidInputError("angle spread must be nonnegative")
    # What ``draw_paths`` draws a ray over; a Python float overflows without a warning.
    if not np.isfinite(2.0 * 3.0**0.5 * angle_spread):
        raise InvalidInputError(
            "angle spread is too large: its ray range 2*sqrt(3)*spread overflows"
        )
    if condition not in CONDITIONS:
        raise InvalidInputError(f"unknown condition {condition!r}")
    if condition == "ill" and n_cl < ILL_MIN_CLUSTERS:
        raise InvalidInputError(f"ill-conditioned profile needs n_cl >= {ILL_MIN_CLUSTERS}")


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment configuration.

    ``n_cl``, ``n_ray``, ``trials`` and ``master_seed`` are integers;
    numpy integers become ``int``, and a ``bool`` or a float is rejected.
    Fields cannot be assigned once built, and ``snr_db`` is a read-only
    float copy of the given grid of integers or floats (not a ``bool``,
    string or complex grid); ``angle_spread`` is stored as a ``float``.
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
        if not isinstance(self.geometry, ArrayGeometry):
            raise InvalidInputError(f"geometry must be an ArrayGeometry, got {self.geometry!r}")
        # Through object, as the dataclass is frozen.
        for name in ("n_cl", "n_ray", "trials", "master_seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.master_seed < 0:
            raise InvalidInputError(f"master seed must be >= 0, got {self.master_seed}")
        try:
            kind = np.asarray(self.snr_db).dtype.kind
        except ValueError as exc:  # a ragged grid, such as [[1, 2], [3]]
            raise InvalidInputError("snr grid must be one-dimensional") from exc
        if kind not in "iuf":
            raise InvalidInputError("snr grid must be real")
        snr_db = np.array(self.snr_db, dtype=float, ndmin=1)
        snr_db.flags.writeable = False
        object.__setattr__(self, "snr_db", snr_db)
        if self.snr_db.ndim != 1:
            raise InvalidInputError("snr grid must be one-dimensional")
        if self.snr_db.size < 1:
            raise InvalidInputError("snr grid must be nonempty")
        _check_finite_grid(self.snr_db)
        # Trials take the grid in linear units, where it must stay positive
        # and finite too.
        with np.errstate(over="ignore"):
            linear = _linear(self.snr_db)
        if not np.all(np.isfinite(linear) & (linear > 0.0)):
            raise InvalidInputError("snr grid overflows or underflows in linear units")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        object.__setattr__(self, "angle_spread", require_real(self.angle_spread, "angle spread"))
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


def draw_paths(scenario, start, stop):
    """The path sets of trials ``start .. stop-1``, as (stop - start, L) arrays.

    Each trial draws from its own stream,
    ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``, in
    this order: the ``good`` regime's cluster power ratios (magnitudes of
    ``n_cl`` standard normals; ``ill`` fixes them at 100:50:50:1:...:1 and
    draws none), the cluster mean departures, then arrivals (uniform on
    [-pi/2, pi/2]), the ray gains' real parts, then imaginary parts, and
    the ray departures, then arrivals. So a (seed, index) pair maps to
    exactly one path set, whatever the batch, worker or order of trials.

    The cluster powers ``sigma_sq`` are the ratios rescaled to total
    ``n_t*n_r/n_ray``, which keeps the expected squared Frobenius norm of
    a channel at ``n_t*n_r``. Ray gains in cluster i are circularly
    symmetric complex Gaussian with variance ``sigma_sq[i]``. Ray angles
    are uniform around their cluster mean with standard deviation
    ``angle_spread`` (half-width ``sqrt(3)*spread``, the unique symmetric
    uniform with that deviation), clipped to [-pi/2, pi/2]. Paths are
    ordered cluster-major. ``start`` and ``stop`` are integers with
    ``0 <= start < stop <= trials``.
    """
    start = require_integer(start, "start")
    stop = require_integer(stop, "stop")
    if not 0 <= start < stop <= scenario.trials:
        raise InvalidInputError(
            f"trial range [{start}, {stop}) is empty or outside [0, {scenario.trials})"
        )
    n_cl, n_ray, seed = scenario.n_cl, scenario.n_ray, scenario.master_seed
    ratios = np.empty((stop - start, n_cl))
    real, imag, aod, aoa = np.empty((4, stop - start, n_cl * n_ray))
    half = np.sqrt(3.0) * scenario.angle_spread
    good = scenario.condition == "good"
    for row, index in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        if good:
            ratios[row] = rng.standard_normal(n_cl)
        centers_t = np.repeat(rng.uniform(-HALF_PI, HALF_PI, n_cl), n_ray)
        centers_r = np.repeat(rng.uniform(-HALF_PI, HALF_PI, n_cl), n_ray)
        real[row] = rng.standard_normal(n_cl * n_ray)
        imag[row] = rng.standard_normal(n_cl * n_ray)
        aod[row] = rng.uniform(centers_t - half, centers_t + half)
        aoa[row] = rng.uniform(centers_r - half, centers_r + half)
    ratios = np.abs(ratios) if good else np.array([100.0, 50.0, 50.0] + [1.0] * (n_cl - 3))
    budget = scenario.geometry.n_t * scenario.geometry.n_r / n_ray
    sigma_sq = ratios * (budget / ratios.sum(axis=-1, keepdims=True))
    scale = np.sqrt(np.repeat(sigma_sq, n_ray, axis=-1) / 2.0)
    return PathSet(
        gains=scale * (real + 1j * imag),
        aod=np.clip(aod, -HALF_PI, HALF_PI),
        aoa=np.clip(aoa, -HALF_PI, HALF_PI),
    )


def trial_bytes(n_paths, n_t):
    """Per-trial bytes of a lockstep batch: ``(peak, step)``.

    ``peak`` bounds what a batch holds at once, per trial, for n_r <= n_t:
    40 L^2 of L x L state (the Gram and receive factor matrices, complex,
    and the squared Gram magnitudes, real), 88 n_t L of n_t x L arrays
    (steering matrices, transmit basis, designed columns and the last
    step's coupling columns), 256 L of vectors and 40 n_t^2 for a step's
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


def run_trials(scenario, start, stop):
    """Evaluate trials ``start .. stop-1`` in lockstep on the SNR grid.

    Returns ``(physical, pattern)`` capacity arrays of shape
    (stop - start, SNR points) in bits/s/Hz; ``start`` and ``stop`` are
    those of ``draw_paths``, and ``run_trials(scenario, i, i + 1)`` is
    trial ``i`` alone. Each trial draws its paths from its own stream
    (``draw_paths``, one path set for the batch); the rest runs on the
    stacked batch: the lockstep design (``design_pattern``), one
    ``assemble_pattern_channel`` call on the neutral all-ones and the
    designed pattern stacked together (one steering ``exp`` per array
    side), and one ``capacity`` sweep over both channels. Each row is
    bit-identical to the call on its trial alone and to the campaign's
    row of that trial, under any BLAS thread count of the caller: the
    batch runs on one BLAS thread (the caller's count is restored). The
    batch's memory grows with its size (see ``batch_size``).
    """
    geometry = scenario.geometry
    snr = _linear(scenario.snr_db)
    with one_blas_thread():
        paths = draw_paths(scenario, start, stop)
        pattern = design_pattern(geometry, paths)[0]
        both = PatternMatrix(
            m_hat=np.stack([np.ones_like(pattern.m_hat), pattern.m_hat]),
            p=np.stack([np.ones_like(pattern.p), pattern.p]),
        )
        return capacity(assemble_pattern_channel(geometry, paths, both), snr)


def _run_batch(scenario, start, stop):
    """Outcome records ``(index, physical, pattern, error)`` of one batch.

    A failing batch is rerun one trial at a time: a ``NumericalFailureError``
    then fails only its own trial, and any other exception (an
    ``InvalidInputError`` too) is a bug that aborts with the trial index.
    """
    try:
        physical, designed = run_trials(scenario, start, stop)
    except Exception as exc:
        if stop - start > 1:
            outcomes = [o for i in range(start, stop) for o in _run_batch(scenario, i, i + 1)]
            if isinstance(exc, NumericalFailureError):
                return outcomes
            where = f"trials {start}..{stop - 1} as one batch"
        elif isinstance(exc, NumericalFailureError):  # counted, never averaged
            return [(start, None, None, f"{type(exc).__name__}: {exc}")]
        else:
            where = f"trial {start}"
        raise CampaignError(
            f"{where} (master_seed {scenario.master_seed}) raised {type(exc).__name__}: {exc}"
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


# A pool worker's copy of its pool's first failed batch start (see
# ``_start_worker``).
_worker_failed = None


def _start_worker(failed):
    # Pool initializer, so that it holds under any start method.
    global _worker_failed
    _worker_failed = failed
    set_blas_threads(1)


def _pool_batch(run, start, stop):
    # The batch's outcomes, or none after an earlier batch failed: each
    # batch before the first failure runs, so the campaign raises the
    # first failure in trial order, whatever the schedule.
    if start > _worker_failed.value:
        return []
    try:
        return run(start, stop)
    except BaseException:
        with _worker_failed.get_lock():
            _worker_failed.value = min(_worker_failed.value, start)
        raise


def _trial_outcomes(scenario, workers):
    # Consecutive lockstep batches, so only the campaign's last one is
    # short, on no more workers than batches: one per usable core for
    # ``workers == 1``. One worker is this process; more make a pool that
    # takes the batches in chunks, about eight per worker: few enough
    # tasks that dispatch stays cheap, enough to balance uneven trials.
    # A failed batch stops the workers before their next later batch.
    trials = scenario.trials
    size = batch_size(scenario.n_cl * scenario.n_ray, scenario.geometry.n_t)
    starts = range(0, trials, size)
    stops = [min(start + size, trials) for start in starts]
    run = partial(_run_batch, scenario)
    workers = min(_usable_cores() if workers == 1 else workers, len(starts))
    if workers == 1:
        with one_blas_thread():
            batches = list(map(run, starts, stops))
    else:
        # Imported here, so that a run in this process loads no process
        # machinery.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Value

        # The pool's own map already cancels the chunks it has not handed
        # to a worker; the first failed start skips the ones handed over
        # that come after it. No batch starts at ``trials``.
        failed = Value("q", trials)
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(failed,)) as pool:
            chunk = -(-len(starts) // (8 * workers))
            batches = list(pool.map(partial(_pool_batch, run), starts, stops, chunksize=chunk))
    return [outcome for outcomes in batches for outcome in outcomes]


def _check_request(schemes, workers, safeguard):
    # The request rules, which ``run_campaign`` and the CLI check here: a bool
    # safeguard, and a collection (not a string) of distinct ``SCHEMES`` on
    # an integer count >= 1.
    if not isinstance(safeguard, (bool, np.bool_)):
        raise InvalidInputError(f"safeguard must be True or False, got {safeguard!r}")
    workers = require_integer(workers, "workers")
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    if isinstance(schemes, str):
        raise InvalidInputError(f"schemes must be a collection of names, not a string: {schemes!r}")
    schemes = tuple(schemes)
    if not schemes:
        raise InvalidInputError("at least one scheme is required")
    unknown = set(schemes) - set(SCHEMES)
    if unknown:
        raise InvalidInputError(f"unknown schemes: {sorted(unknown)}")
    repeated = {scheme for scheme in schemes if schemes.count(scheme) > 1}
    if repeated:
        raise InvalidInputError(f"repeated schemes: {sorted(repeated)}")
    return schemes, workers


def run_campaign(scenario, schemes=SCHEMES, workers=1, safeguard=False):
    """Run all trials and aggregate one capacity curve per scheme, in ``SCHEMES`` order.

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
    Trials that raise a ``NumericalFailureError`` are excluded and counted;
    more than 1% of failures aborts with ``CampaignError``, and so does any
    other exception at once, an ``InvalidInputError`` too, naming the
    master seed and the trial index; the workers then start no further batch.

    With ``safeguard=True`` (a Python or numpy bool) each trial's pattern
    row is floored at its physical row (the all-ones pattern) where the
    design loses at the highest grid SNR, once, on the trials that ran.
    """
    schemes, workers = _check_request(schemes, workers, safeguard)
    ideal = ideal_capacity(scenario.geometry, _linear(scenario.snr_db))
    stats = {"ideal": (ideal, np.zeros_like(ideal), 0)}  # each scheme's (mean, std, trials)
    if "physical" in schemes or "pattern" in schemes:
        outcomes = _trial_outcomes(scenario, workers)

        failures = [(index, error) for index, _, _, error in outcomes if error is not None]
        ran = [(physical, designed) for _, physical, designed, error in outcomes if error is None]
        if len(failures) > FAILURE_THRESHOLD * scenario.trials:
            raise CampaignError(
                f"{len(failures)} of {scenario.trials} trials failed; "
                f"first failure: trial {failures[0][0]}: {failures[0][1]}"
            )
        if failures:
            message = f"excluded {len(failures)} failed trials of {scenario.trials}"
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        physical, designed = (np.array(rows) for rows in zip(*ran))
        if safeguard:
            reference = np.argmax(scenario.snr_db)
            lost = designed[:, reference] < physical[:, reference]
            designed = np.where(lost[:, None], physical, designed)
        for scheme, samples in (("physical", physical), ("pattern", designed)):
            stats[scheme] = (samples.mean(axis=0), samples.std(axis=0), len(samples))
    return [
        CapacityCurve(scheme, scenario.snr_db.copy(), *stats[scheme])
        for scheme in SCHEMES if scheme in schemes
    ]
