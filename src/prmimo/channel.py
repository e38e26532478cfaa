"""Geometric multi-path channels for uniform linear arrays.

Steering vectors, deterministic channel assembly from a path set, and a
randomized cluster-channel generator with good- and ill-conditioned
cluster power profiles. All angles are azimuths in radians; spacings are
normalized to the carrier wavelength.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import require_integer

HALF_PI = np.pi / 2.0

# The cluster power regimes of ``condition_profile``, and the fewest
# clusters the ill-conditioned one is defined for.
CONDITIONS = ("good", "ill")
ILL_MIN_CLUSTERS = 4


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts and normalized element spacings at both ends.

    The transmit array is assumed at least as large as the receive array.
    The counts are integers; numpy integers become ``int``, and a
    ``bool`` or a float is rejected.
    """

    n_t: int
    n_r: int
    spacing_t: float = 0.5
    spacing_r: float = 0.5

    def __post_init__(self):
        for name in ("n_t", "n_r"):
            # Through object, as the dataclass is frozen.
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n_r < 1 or self.n_t < self.n_r:
            raise InvalidInputError(
                f"need n_t >= n_r >= 1, got n_t={self.n_t}, n_r={self.n_r}"
            )
        if not (np.isfinite(self.spacing_t) and np.isfinite(self.spacing_r)):
            raise InvalidInputError("antenna spacings must be finite")
        if self.spacing_t <= 0 or self.spacing_r <= 0:
            raise InvalidInputError("antenna spacings must be positive")
        # Steering and coupling phases reach 2*pi*d*(n-1) times a sine
        # difference of up to 2; past that they overflow in every trial.
        for side, spacing, n in (("t", self.spacing_t, self.n_t), ("r", self.spacing_r, self.n_r)):
            if not np.isfinite(4.0 * np.pi * spacing * (n - 1)):
                raise InvalidInputError(
                    f"spacing_{side} is too large: its phase 4*pi*d*(n-1) overflows"
                )


@dataclass
class PathSet:
    """Complex path gains with their departure and arrival azimuths (or T stacked)."""

    gains: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray

    def __post_init__(self):
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.aod = np.atleast_1d(np.asarray(self.aod, dtype=float))
        self.aoa = np.atleast_1d(np.asarray(self.aoa, dtype=float))
        shapes = {self.gains.shape, self.aod.shape, self.aoa.shape}
        if len(shapes) != 1 or self.gains.ndim > 2 or self.gains.size < 1:
            raise InvalidInputError("gains, aod and aoa must share one length >= 1")
        for name, values in (("gains", self.gains), ("aod", self.aod), ("aoa", self.aoa)):
            if not np.isfinite(values).all():
                raise InvalidInputError(f"path {name} must be finite")
        for name, angles in (("aod", self.aod), ("aoa", self.aoa)):
            if np.any(np.abs(angles) > HALF_PI):
                raise InvalidInputError(f"{name} angles must lie in [-pi/2, pi/2]")

    def __len__(self):
        return self.gains.shape[-1]


def stack_paths(path_sets):
    """One ``PathSet`` of (T, L) arrays from T path sets of one length L."""
    path_sets = list(path_sets)
    if len({len(paths) for paths in path_sets}) != 1:
        raise InvalidInputError("need one or more path sets of one length")
    return PathSet(*(np.stack([getattr(p, f) for p in path_sets]) for f in ("gains", "aod", "aoa")))


@dataclass
class ClusterProfile:
    """Per-cluster average ray powers and the common angular spread."""

    n_cl: int
    n_ray: int
    sigma_sq: np.ndarray
    angle_spread: float

    def __post_init__(self):
        _check_clusters(self.n_cl, self.n_ray, self.angle_spread)
        self.sigma_sq = np.atleast_1d(np.asarray(self.sigma_sq, dtype=float))
        if self.sigma_sq.shape != (self.n_cl,):
            raise InvalidInputError(
                f"sigma_sq must have length n_cl={self.n_cl}, got {self.sigma_sq.shape}"
            )
        if not np.isfinite(self.sigma_sq).all():
            raise InvalidInputError("cluster powers must be finite")
        if np.any(self.sigma_sq <= 0):
            raise InvalidInputError("cluster powers must be positive")


def _check_clusters(n_cl, n_ray, angle_spread, condition=None):
    # The cluster rules, which ``ClusterProfile`` (no ``condition``),
    # ``condition_profile`` and ``montecarlo.Scenario`` check here.
    if n_cl < 1 or n_ray < 1:
        raise InvalidInputError("cluster and ray counts must be >= 1")
    if not np.isfinite(angle_spread):
        raise InvalidInputError("angle spread must be finite")
    if angle_spread < 0:
        raise InvalidInputError("angle spread must be nonnegative")
    if condition is not None and condition not in CONDITIONS:
        raise InvalidInputError(f"unknown condition {condition!r}")
    if condition == "ill" and n_cl < ILL_MIN_CLUSTERS:
        raise InvalidInputError(f"ill-conditioned profile needs n_cl >= {ILL_MIN_CLUSTERS}")


def steering_phases(n, spacing, angles):
    """Entry (k, l) is ``exp(-j*2*pi*spacing*k*sin(angles[l]))``.

    ``steering_matrix`` before its 1/sqrt(n); the factored Gram matrix of
    ``prmimo.sof`` takes these phases unnormalized.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return np.exp(-2j * np.pi * spacing * (np.arange(n)[:, None] * np.sin(angles)[..., None, :]))


def steering_matrix(n, spacing, angles):
    """Unit-norm n-element ULA responses, one column per azimuth.

    Entry (k, l) (0-based) is
    ``exp(-j*2*pi*spacing*k*sin(angles[l])) / sqrt(n)``; a (T, L) stack
    of azimuths gives a (T, n, L) stack.
    """
    if n < 1:
        raise InvalidInputError("antenna count must be >= 1")
    if spacing <= 0:
        raise InvalidInputError("spacing must be positive")
    return steering_phases(n, spacing, angles) / np.sqrt(n)


def channel_factors(geometry, paths):
    """``(A_R diag(gains), A_T)``, shared by every channel of ``paths``.

    ``A_R`` (n_r, L) and ``A_T`` (n_t, L) are the steering matrices of the
    arrivals and departures (stacked for a stacked path set).
    """
    a_r = steering_matrix(geometry.n_r, geometry.spacing_r, paths.aoa)
    a_t = steering_matrix(geometry.n_t, geometry.spacing_t, paths.aod)
    return a_r * paths.gains[..., None, :], a_t


def assemble_physical(geometry, paths, factors=None):
    """Channel matrix of the bare scattering geometry, shape (n_r, n_t).

    Computed in factored form ``A_R diag(gains) A_T^H``; identical up to
    round-off to summing the rank-one per-path contributions, which the
    tests verify element-wise. Stacked paths give stacked channels;
    ``factors`` (``channel_factors``) are built here when not given.
    """
    gained_r, a_t = factors or channel_factors(geometry, paths)
    return gained_r @ a_t.conj().swapaxes(-1, -2)


def sample_cluster_paths(profile, means_aod, means_aoa, rng):
    """Draw one random path set from a cluster scattering profile.

    Ray gains in cluster i are circularly symmetric complex Gaussian with
    variance ``sigma_sq[i]``. Ray angles are uniform around the cluster
    mean with standard deviation ``angle_spread`` (half-width
    ``sqrt(3)*spread``, the unique symmetric uniform with that deviation)
    and are clipped to [-pi/2, pi/2]. Paths are ordered cluster-major.
    Draw order is gains (real then imaginary), departures, arrivals, so a
    given generator state maps to exactly one path set.
    """
    means_aod = np.atleast_1d(np.asarray(means_aod, dtype=float))
    means_aoa = np.atleast_1d(np.asarray(means_aoa, dtype=float))
    if means_aod.shape != (profile.n_cl,) or means_aoa.shape != (profile.n_cl,):
        raise InvalidInputError(
            f"cluster means must have length n_cl={profile.n_cl}"
        )
    total = profile.n_cl * profile.n_ray
    sigma = np.repeat(profile.sigma_sq, profile.n_ray)
    scale = np.sqrt(sigma / 2.0)
    gains = scale * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    half = np.sqrt(3.0) * profile.angle_spread
    centers_t = np.repeat(means_aod, profile.n_ray)
    centers_r = np.repeat(means_aoa, profile.n_ray)
    aod = np.clip(rng.uniform(centers_t - half, centers_t + half), -HALF_PI, HALF_PI)
    aoa = np.clip(rng.uniform(centers_r - half, centers_r + half), -HALF_PI, HALF_PI)
    return PathSet(gains=gains, aod=aod, aoa=aoa)


def condition_profile(kind, geometry, n_cl, n_ray, angle_spread, rng):
    """Build the cluster power profile for one conditioning regime.

    ``"ill"`` fixes the cluster power ratios at 100:50:50:1:...:1 (needs
    at least four clusters). ``"good"`` draws magnitudes of standard
    normal variables. Either way the powers are rescaled so their total
    equals ``n_t*n_r/n_ray``, which keeps the expected squared Frobenius
    norm of a sampled channel at ``n_t*n_r``.
    """
    _check_clusters(n_cl, n_ray, angle_spread, kind)
    budget = geometry.n_t * geometry.n_r / n_ray
    if kind == "ill":
        ratios = np.array([100.0, 50.0, 50.0] + [1.0] * (n_cl - 3))
    else:
        ratios = np.abs(rng.standard_normal(n_cl))
    sigma_sq = ratios * (budget / ratios.sum())
    return ClusterProfile(n_cl, n_ray, sigma_sq, angle_spread)
