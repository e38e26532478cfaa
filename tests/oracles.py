"""Direct, unoptimized reference forms that only the tests use.

Each oracle evaluates a quantity one term at a time, straight from its
definition, so the factored library code can be checked against it.
"""

import numpy as np

from prmimo import InvalidInputError
from prmimo.cfpa import EPS_FLOOR
from prmimo import steering_matrix


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
    vector with the pattern-modified i-th transmit steering vector.
    """
    a_r = steering_matrix(geometry.n_r, geometry.spacing_r, paths.aoa)
    a_t = steering_matrix(geometry.n_t, geometry.spacing_t, paths.aod)
    return np.einsum("ri,ti->irt", a_r, (a_t * np.asarray(m_hat, dtype=float)).conj())


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
    ``modified_subchannels``.
    """
    subchannels = modified_subchannels(geometry, paths, m_hat)
    return np.einsum("irt,jrt->ij", subchannels.conj(), subchannels)


def kept_allocation_factors(geometry, gains, g, indicator):
    """The paper's closed-form power factors, zero-gain paths removed first.

    ``allocate_power`` returns these factors rescaled by one factor to the
    power budget of the gain-weighted sum. Over the paths of nonzero gain
    only: weights
    ``max(I) / max(I_l, EPS_FLOOR * max(I))`` (all ones for an all-zero
    indicator), proportions ``w = w_hat / sum(w_hat)``, scale factor
    ``delta = sqrt(n_t*n_r / w^T Re(G) w)`` on the kept rows and columns
    of the Gram matrix, and factors ``w * delta / |gain|``. The removed
    paths get factor 0.
    """
    keep = np.abs(gains) > 0.0
    kept = np.asarray(indicator, dtype=float)[keep]
    top = kept.max()
    w_hat = np.ones(kept.size) if top == 0.0 else top / np.maximum(kept, EPS_FLOOR * top)
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
