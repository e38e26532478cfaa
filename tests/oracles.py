"""Direct, unoptimized reference forms that only the tests use.

Each oracle evaluates a quantity one term at a time, straight from its
definition, so the factored library code can be checked against it.
"""

from collections import namedtuple

import numpy as np

from prmimo import InvalidInputError, PathSet
from prmimo.cfpa import EPS_FLOOR
from prmimo.channel import HALF_PI, steering_phases


def steering_vector(n, spacing, angle):
    """Unit-norm response of an n-element ULA toward one azimuth.

    Entry k (0-based) is ``exp(-j*2*pi*spacing*k*sin(angle)) / sqrt(n)``.
    """
    if n < 1:
        raise InvalidInputError("antenna count must be >= 1")
    if spacing <= 0:
        raise InvalidInputError("spacing must be positive")
    phase = -2j * np.pi * spacing * np.sin(angle) * np.arange(n)
    return np.exp(phase) / np.sqrt(n)


def steering_matrix(n, spacing, angles):
    """Unit-norm n-element ULA responses, one column per azimuth.

    The library's per-side expression in ``assemble_pattern_channel``,
    so that a product built from it carries the library's bits; a (T, L)
    stack of azimuths gives a (T, n, L) stack. ``steering_vector`` states
    each column on its own.
    """
    return steering_phases(n, spacing, angles) / np.sqrt(n)


def singular_values(a):
    """Singular values of a complex matrix, descending.

    ``sum(s**2) == ||A||_F**2`` up to round-off, an identity independent
    of the Gram-eigenvalue route the library takes to capacity.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


def modified_subchannels(geometry, paths, m_hat):
    """Unit-power modified subchannels, one (n_r, n_t) slab per path.

    Slab i is the rank-one outer product of the i-th receive steering
    vector with the pattern-modified i-th transmit steering vector. A
    stacked path set, with ``m_hat`` stacked alike, gives (T, L, n_r, n_t).
    """
    a_r = steering_matrix(geometry.n_r, geometry.spacing_r, paths.aoa)
    a_t = steering_matrix(geometry.n_t, geometry.spacing_t, paths.aod)
    return np.einsum("...ri,...ti->...irt", a_r, (a_t * np.asarray(m_hat, dtype=float)).conj())


def tensor_power_scaling(geometry, subchannels, w):
    """``sqrt(n_t*n_r / ||sum_l w_l S_l||_F^2)`` from the explicit slabs."""
    combined = np.tensordot(w, subchannels, axes=(0, 0))
    return float(np.sqrt(geometry.n_t * geometry.n_r / np.sum(np.abs(combined) ** 2)))


def receiver_correlation(geometry, theta_i, theta_k):
    """Receive-side correlation between two arrival angles.

    ``(1/n_r) * sum_n exp(j*2*pi*d_r*n*(sin theta_k - sin theta_i))``;
    magnitude is at most 1, with equality at identical angles.
    """
    n = np.arange(geometry.n_r)
    phases = 2.0 * np.pi * geometry.spacing_r * (np.sin(theta_k) - np.sin(theta_i)) * n
    return complex(np.exp(1j * phases).sum() / geometry.n_r)


def b_vector(geometry, m_hat_k, phi_i, phi_k):
    """Transmit-side coupling of a fixed column toward a new departure.

    Entry n is ``(1/n_t) * m_hat_k(n) *
    exp(j*2*pi*d_t*n*(sin phi_i - sin phi_k))``. Its inner product with
    the redesigned column gives the transmit part of the pair's Gram
    entry, which is what the quadratic objective penalizes.
    """
    m_hat_k = np.asarray(m_hat_k, dtype=float)
    n = np.arange(geometry.n_t)
    phase = np.exp(
        2j * np.pi * geometry.spacing_t * (np.sin(phi_i) - np.sin(phi_k)) * n
    )
    return m_hat_k * phase / geometry.n_t


def quadratic_matrix(rho_r, b):
    """Real symmetric PSD coefficient matrix of one squared-correlation term.

    ``real(|rho_r|^2 * conj(b) b^T)``, symmetrized. For any real m the
    quadratic form equals ``|rho_r|^2 * |b^T m|^2``, the squared
    magnitude of the corresponding Gram entry.
    """
    b = np.asarray(b, dtype=complex)
    m = (abs(rho_r) ** 2) * np.outer(b.conj(), b).real
    return 0.5 * (m + m.T)


def direct_trace_gram(geometry, paths, m_hat):
    """Gram matrix of the modified subchannels from explicit traces.

    Entry (i, j) is ``tr(S_i^H S_j)`` over the slabs returned by
    ``modified_subchannels``; a stacked path set gives (T, L, L).
    """
    subchannels = modified_subchannels(geometry, paths, m_hat)
    return np.einsum("...irt,...jrt->...ij", subchannels.conj(), subchannels)


def kept_weights(gains, indicator):
    """The paper's inverse-correlation weights, zero-gain paths removed first.

    Over the paths of nonzero gain only, ``max(I) / max(I_l, EPS_FLOOR *
    max(I))`` (all ones for an all-zero indicator); the removed paths get
    weight 0.
    """
    keep = np.abs(gains) > 0.0
    kept = np.asarray(indicator, dtype=float)[keep]
    top = kept.max()
    w_hat = np.zeros(np.shape(gains))
    w_hat[keep] = 1.0 if top == 0.0 else top / np.maximum(kept, EPS_FLOOR * top)
    return w_hat


def kept_allocation_factors(geometry, gains, g, indicator):
    """The paper's closed-form power factors, zero-gain paths removed first.

    ``allocate_power`` returns these factors rescaled by one factor to the
    power budget of the gain-weighted sum. Over the paths of nonzero gain
    only: weights ``kept_weights``, proportions ``w = w_hat / sum(w_hat)``,
    scale factor ``delta = sqrt(n_t*n_r / w^T Re(G) w)`` on the kept rows
    and columns of the Gram matrix, and factors ``w * delta / |gain|``.
    The removed paths get factor 0.
    """
    keep = np.abs(gains) > 0.0
    w_hat = kept_weights(gains, indicator)[keep]
    w = w_hat / w_hat.sum()
    delta = np.sqrt(geometry.n_t * geometry.n_r / (w @ np.real(g)[np.ix_(keep, keep)] @ w))
    p = np.zeros(np.shape(gains))
    p[keep] = w * delta / np.abs(gains[keep])
    return p


def full_phase_penalty_matrix(geometry, recv, order, m_prior, sin_prior, step):
    """``sof._penalty_matrix`` with the phases taken on every entry.

    The coupling columns ``m_j exp(j 2 pi d_t k (sin phi_t - sin phi_j)) / n_t``
    are built in full, zero entries of ``m_j`` included, and the penalty is
    ``Re(sum_j w_j conj(b_j) b_j^T)`` with ``w_j = |rho^R|^2``. The library
    skips the phases where ``m_j`` is 0; the tests hold its results to
    these bits.
    """
    n_t, k = geometry.n_t, np.arange(geometry.n_t)
    trials_col = np.arange(len(order))[:, None]
    weights = np.abs(recv[trials_col, order[:, step, None], order[:, :step]] / geometry.n_r) ** 2
    delta = sin_prior[:, step, None, None] - sin_prior[:, None, :step]
    b_cols = 2j * np.pi * geometry.spacing_t * (k[:, None] * delta)
    np.exp(b_cols, out=b_cols)
    b_cols *= m_prior[:, :, :step]
    b_cols /= n_t
    weighted = b_cols.conj()
    weighted *= weights[:, None, :]
    return (weighted @ b_cols.swapaxes(1, 2)).real.copy()


# The per-trial channel draw, one generator call after another, as
# ``montecarlo.draw_paths`` composed it before it drew a batch at once;
# each row of a batch must carry these bytes.
ClusterProfile = namedtuple("ClusterProfile", "n_cl n_ray sigma_sq angle_spread")


def per_trial_draw(scenario, trial_index):
    """One trial's path set, drawn alone from its own stream.

    The stream hashes the master seed with the trial index as a spawn
    key. Draw order within it: cluster power profile (randomized only for
    the good-conditioned regime), cluster mean departures, cluster mean
    arrivals, then the per-ray path set.
    """
    seq = np.random.SeedSequence(scenario.master_seed, spawn_key=(trial_index,))
    rng = np.random.default_rng(seq)
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


def sample_cluster_paths(profile, means_aod, means_aoa, rng):
    """Draw one random path set from a cluster scattering profile.

    Ray gains in cluster i are circularly symmetric complex Gaussian with
    variance ``sigma_sq[i]``. Ray angles are uniform around the cluster
    mean with standard deviation ``angle_spread`` (half-width
    ``sqrt(3)*spread``) and are clipped to [-pi/2, pi/2]. Paths are
    ordered cluster-major. Draw order is gains (real then imaginary),
    departures, arrivals.
    """
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
    """The cluster power profile of one conditioning regime.

    ``"ill"`` fixes the cluster power ratios at 100:50:50:1:...:1.
    ``"good"`` draws magnitudes of standard normal variables. Either way
    the powers are rescaled so their total equals ``n_t*n_r/n_ray``.
    """
    budget = geometry.n_t * geometry.n_r / n_ray
    if kind == "ill":
        ratios = np.array([100.0, 50.0, 50.0] + [1.0] * (n_cl - 3))
    else:
        ratios = np.abs(rng.standard_normal(n_cl))
    sigma_sq = ratios * (budget / ratios.sum())
    return ClusterProfile(n_cl, n_ray, sigma_sq, angle_spread)
