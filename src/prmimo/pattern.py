"""Pattern-modified channels and their correlation structure.

The transmit pattern enters the channel as a nonnegative per-antenna,
per-path gain matrix. This module assembles the modified channel,
evaluates its capacity, and quantifies inter-subchannel correlation
through the Gram matrix of the normalized modified subchannels.
"""

from dataclasses import dataclass

import numpy as np

from .channel import steering_matrices
from .errors import InvalidInputError
from .numerics import logdet_capacity_kernel

# Absolute tolerances for the factored-pattern invariants.
COLUMN_NORM_TOL = 1e-10
FACTOR_TOL = 1e-10
HERMITIAN_TOL = 1e-12


@dataclass
class PatternMatrix:
    """Nonnegative transmit pattern gains in factored form.

    ``m_hat`` holds the unit-power modification columns (squared column
    norm equal to the transmit antenna count), ``p`` the per-path power
    factors, and ``m = m_hat * diag(p)`` the combined pattern whose
    (k, l) entry is the sampled gain of antenna k toward path l. Entries
    are power gains only; the pattern carries no phase.
    """

    m_hat: np.ndarray
    p: np.ndarray
    m: np.ndarray = None

    def __post_init__(self):
        self.m_hat = np.asarray(self.m_hat, dtype=float)
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.m_hat.ndim != 2:
            raise InvalidInputError("m_hat must be a 2-D matrix")
        n_t, n_paths = self.m_hat.shape
        if self.p.shape != (n_paths,):
            raise InvalidInputError(
                f"p must have one entry per column, got {self.p.shape} for {n_paths} columns"
            )
        if np.any(self.m_hat < 0) or np.any(self.p < 0):
            raise InvalidInputError("pattern entries must be nonnegative")
        norms = np.sum(self.m_hat**2, axis=0)
        if np.any(np.abs(norms - n_t) > COLUMN_NORM_TOL):
            worst = float(np.max(np.abs(norms - n_t)))
            raise InvalidInputError(
                f"every m_hat column needs squared norm {n_t}, worst deviation {worst:.3g}"
            )
        product = self.m_hat * self.p
        if self.m is None:
            self.m = product
        else:
            self.m = np.asarray(self.m, dtype=float)
            if self.m.shape != self.m_hat.shape:
                raise InvalidInputError("m and m_hat shapes differ")
            if np.any(np.abs(self.m - product) > FACTOR_TOL):
                raise InvalidInputError("m does not factor as m_hat * diag(p)")
            if np.any(self.m < 0):
                raise InvalidInputError("pattern entries must be nonnegative")

    @classmethod
    def all_ones(cls, n_t, n_paths):
        """Neutral pattern: every column all-ones, unit power factors."""
        return cls(m_hat=np.ones((n_t, n_paths)), p=np.ones(n_paths))


@dataclass
class SubchannelGram:
    """Gram matrix of normalized modified subchannels plus its indicator.

    ``indicator[l]`` sums the squared magnitudes of row l off the
    diagonal: the total correlation between subchannel l and all others.
    """

    g: np.ndarray
    indicator: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=complex)
        self.indicator = np.atleast_1d(np.asarray(self.indicator, dtype=float))
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise InvalidInputError("gram matrix must be square")
        if self.indicator.shape != (self.g.shape[0],):
            raise InvalidInputError("indicator length must match the gram dimension")
        if np.max(np.abs(self.g - self.g.conj().T)) > HERMITIAN_TOL:
            raise InvalidInputError("gram matrix is not Hermitian within tolerance")
        if np.any(np.abs(np.diag(self.g) - 1.0) > 1e-10):
            raise InvalidInputError("gram diagonal must be 1 for normalized subchannels")
        if np.any(self.indicator < 0):
            raise InvalidInputError("indicator entries must be nonnegative")


def capacity(h, snr):
    """Channel capacity ``log2 det(I + snr/n_r * H H^H)`` in bits/s/Hz.

    ``snr`` is the transmit signal-to-noise ratio in linear units; equal
    power is radiated from every transmit antenna (no precoder). A scalar
    ``snr`` gives a ``float``; an array gives one capacity per entry from a
    single eigendecomposition, bit-identical to the scalar calls.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise InvalidInputError(f"expected a channel matrix, got shape {h.shape}")
    snr = np.asarray(snr, dtype=float)
    if np.any(snr <= 0):
        raise InvalidInputError(f"snr must be positive, got {snr}")
    n_r = h.shape[0]
    return logdet_capacity_kernel(h @ h.conj().T, snr / n_r)


def assemble_pattern_channel(geometry, paths, pattern):
    """Channel matrix seen through the transmit pattern, shape (n_r, n_t).

    Computed as ``A_R diag(gains) (A_T o M)^H`` with ``o`` the
    element-wise product; equal (to round-off) to summing the per-path
    subchannels weighted by ``gains * p``, which the tests verify.
    """
    if not isinstance(pattern, PatternMatrix):
        raise InvalidInputError("pattern must be a PatternMatrix")
    if pattern.m.shape != (geometry.n_t, len(paths)):
        raise InvalidInputError(
            f"pattern shape {pattern.m.shape} does not match "
            f"({geometry.n_t}, {len(paths)})"
        )
    a_r, a_t = steering_matrices(geometry, paths)
    return (a_r * paths.gains) @ (a_t * pattern.m).conj().T


def modified_subchannels(geometry, paths, m_hat):
    """Unit-power modified subchannels, one (n_r, n_t) slab per path.

    Slab i is the rank-one outer product of the i-th receive steering
    vector with the pattern-modified i-th transmit steering vector.
    """
    m_hat = _check_m_hat(geometry, paths, m_hat)
    a_r, a_t = steering_matrices(geometry, paths)
    return np.einsum("ri,ti->irt", a_r, (a_t * m_hat).conj())


def receiver_factor_matrix(geometry, aoa):
    """Pairwise receive-side phase sums.

    Entry (i, j) is ``sum_n exp(+j*2*pi*d_r*n*(sin aoa_i - sin aoa_j))``
    over the n_r elements; its magnitude divided by n_r is the receive
    correlation between arrivals i and j.
    """
    s = np.sin(np.atleast_1d(np.asarray(aoa, dtype=float)))
    n = np.arange(geometry.n_r)
    basis = np.exp(-2j * np.pi * geometry.spacing_r * np.outer(n, s))
    return basis.conj().T @ basis


def _transmit_basis(geometry, aod, m_hat):
    # Columns m_hat_i weighted by the conjugate transmit phases; the Gram
    # of this basis is the transmit factor of the subchannel Gram matrix.
    s = np.sin(np.atleast_1d(np.asarray(aod, dtype=float)))
    k = np.arange(geometry.n_t)
    return m_hat * np.exp(2j * np.pi * geometry.spacing_t * np.outer(k, s))


def transmit_factor_matrix(geometry, aod, m_hat):
    """Pairwise transmit-side weighted phase sums for given columns.

    Entry (i, j) is
    ``sum_k m_hat_i(k) m_hat_j(k) exp(j*2*pi*d_t*k*(sin aod_j - sin aod_i))``.
    """
    basis = _transmit_basis(geometry, aod, m_hat)
    return basis.conj().T @ basis


def _check_m_hat(geometry, paths, m_hat):
    m_hat = np.asarray(m_hat, dtype=float)
    if m_hat.shape != (geometry.n_t, len(paths)):
        raise InvalidInputError(
            f"m_hat shape {m_hat.shape} does not match ({geometry.n_t}, {len(paths)})"
        )
    if np.any(m_hat < 0):
        raise InvalidInputError("m_hat entries must be nonnegative")
    norms = np.sum(m_hat**2, axis=0)
    if np.any(np.abs(norms - geometry.n_t) > 1e-8 * max(1.0, geometry.n_t)):
        raise InvalidInputError(
            "m_hat columns must have squared norm n_t; renormalize before calling"
        )
    return m_hat


def subchannel_gram(geometry, paths, m_hat):
    """Gram matrix of the normalized modified subchannels.

    Entry (i, j) is the trace inner product of subchannels i and j,
    evaluated as the product of a receive-side phase sum and a
    transmit-side weighted phase sum divided by ``n_r * n_t``. The
    equivalent direct trace over explicitly assembled subchannels is kept
    as a test oracle only; this factored form is O(L^2 * n_t) instead.
    """
    m_hat = _check_m_hat(geometry, paths, m_hat)
    recv = receiver_factor_matrix(geometry, paths.aoa)
    trans = transmit_factor_matrix(geometry, paths.aod, m_hat)
    g = recv * trans / (geometry.n_r * geometry.n_t)
    g = 0.5 * (g + g.conj().T)
    return SubchannelGram(g=g, indicator=correlation_indicator(g))


def correlation_indicator(g):
    """Per-row sum of squared off-diagonal Gram magnitudes."""
    g = np.asarray(g, dtype=complex)
    sq = np.abs(g) ** 2
    np.fill_diagonal(sq, 0.0)
    return sq.sum(axis=1)
