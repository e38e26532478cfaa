"""Pattern-modified channels and their correlation structure.

The transmit pattern enters the channel as a nonnegative per-antenna,
per-path gain matrix. This module assembles the modified channel,
evaluates its capacity, and quantifies inter-subchannel correlation
through the Gram matrix of the normalized modified subchannels.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import channel_factors
from .errors import InvalidInputError
from .numerics import COLUMN_NORM_RTOL, logdet_capacity_kernel, require_unit_power_columns

# Absolute tolerance on the Hermitian symmetry of a Gram matrix.
HERMITIAN_TOL = 1e-12


@dataclass
class PatternMatrix:
    """Nonnegative transmit pattern gains in factored form.

    ``m_hat`` holds the unit-power modification columns (squared column
    norm equal to the transmit antenna count), ``p`` the per-path power
    factors, and ``m = m_hat * diag(p)`` the combined pattern whose
    (k, l) entry is the sampled gain of antenna k toward path l. Entries
    are power gains only; the pattern carries no phase. Stacked (T, n_t, L)
    columns with (T, L) factors hold T patterns.
    """

    m_hat: np.ndarray
    p: np.ndarray
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m_hat = np.asarray(self.m_hat, dtype=float)
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.m_hat.ndim not in (2, 3):
            raise InvalidInputError("m_hat must be a matrix or a stack of them")
        columns = self.m_hat.shape[:-2] + self.m_hat.shape[-1:]
        if self.p.shape != columns:
            raise InvalidInputError(
                f"p must have one entry per column, got {self.p.shape} for {columns} columns"
            )
        require_unit_power_columns(self.m_hat)
        if np.any(self.p < 0):
            raise InvalidInputError("power factors must be nonnegative")
        self.m = self.m_hat * self.p[..., None, :]

    @classmethod
    def all_ones(cls, n_t, n_paths):
        """Neutral pattern: every column all-ones, unit power factors."""
        return cls(m_hat=np.ones((n_t, n_paths)), p=np.ones(n_paths))


@dataclass
class SubchannelGram:
    """Gram matrix of normalized modified subchannels plus its indicator.

    ``indicator[l]`` sums the squared magnitudes of row l off the
    diagonal: the total correlation between subchannel l and all others.
    Stacked (T, L, L) matrices with (T, L) indicators hold T Grams.
    """

    g: np.ndarray
    indicator: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=complex)
        self.indicator = np.atleast_1d(np.asarray(self.indicator, dtype=float))
        if self.g.ndim not in (2, 3) or self.g.shape[-1] != self.g.shape[-2]:
            raise InvalidInputError("gram matrix must be square")
        if self.indicator.shape != self.g.shape[:-1]:
            raise InvalidInputError("indicator length must match the gram dimension")
        # One matrix at a time, so the check holds two L x L temporaries
        # (g^H - g, then its magnitudes) whatever the batch. g^H is built
        # C-ordered, as adding a transposed operand makes numpy buffer it.
        for g in self.g.reshape((-1,) + self.g.shape[-2:]):
            asymmetry = g.T.copy()
            np.conjugate(asymmetry, out=asymmetry)
            asymmetry -= g
            if np.max(np.abs(asymmetry)) > HERMITIAN_TOL:
                raise InvalidInputError("gram matrix is not Hermitian within tolerance")
        if not np.all(np.abs(np.diagonal(self.g, axis1=-2, axis2=-1) - 1.0) <= COLUMN_NORM_RTOL):
            raise InvalidInputError("gram diagonal must be 1 for normalized subchannels")
        if np.any(self.indicator < 0):
            raise InvalidInputError("indicator entries must be nonnegative")


def capacity(h, snr):
    """Channel capacity ``log2 det(I + snr/n_r * H H^H)`` in bits/s/Hz.

    ``snr`` is the transmit signal-to-noise ratio in linear units,
    positive and finite; equal power is radiated from every transmit
    antenna (no precoder). A scalar ``snr`` gives a ``float``; an array
    gives one capacity per entry from a single eigendecomposition,
    bit-identical to the scalar calls. ``h`` may also be a
    (..., n_r, n_t) stack of channels, which adds its leading axes to the
    result, each entry bit-identical to its own call.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2:
        raise InvalidInputError(f"expected a channel matrix, got shape {h.shape}")
    snr = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(snr) & (snr > 0)):
        raise InvalidInputError(f"snr must be positive and finite, got {snr}")
    n_r = h.shape[-2]
    return logdet_capacity_kernel(h @ h.conj().swapaxes(-1, -2), snr / n_r)


def assemble_pattern_channel(geometry, paths, pattern, factors=None):
    """Channel matrix seen through the transmit pattern, shape (n_r, n_t).

    Computed as ``A_R diag(gains) (A_T o M)^H`` with ``o`` the
    element-wise product; equal (to round-off) to summing the per-path
    subchannels weighted by ``gains * p``, which the tests verify. Stacks
    and ``factors`` work as in ``assemble_physical``.
    """
    if not isinstance(pattern, PatternMatrix):
        raise InvalidInputError("pattern must be a PatternMatrix")
    expected = paths.gains.shape[:-1] + (geometry.n_t, len(paths))
    if pattern.m.shape != expected:
        raise InvalidInputError(f"pattern shape {pattern.m.shape} does not match {expected}")
    gained_r, a_t = factors or channel_factors(geometry, paths)
    return gained_r @ (a_t * pattern.m).conj().swapaxes(-1, -2)


def receiver_factor_matrix(geometry, aoa):
    """Pairwise receive-side phase sums.

    Entry (i, j) is ``sum_n exp(+j*2*pi*d_r*n*(sin aoa_i - sin aoa_j))``
    over the n_r elements; its magnitude divided by n_r is the receive
    correlation between arrivals i and j. Stacked arrivals stack it.
    """
    s = np.sin(np.atleast_1d(np.asarray(aoa, dtype=float)))
    n = np.arange(geometry.n_r)
    basis = np.exp(-2j * np.pi * geometry.spacing_r * (n[:, None] * s[..., None, :]))
    return basis.conj().swapaxes(-1, -2) @ basis


def _transmit_basis(geometry, aod, m_hat):
    # Columns m_hat_i weighted by the conjugate transmit phases; the Gram
    # of this basis is the transmit factor of the subchannel Gram matrix.
    s = np.sin(np.atleast_1d(np.asarray(aod, dtype=float)))
    k = np.arange(geometry.n_t)
    return m_hat * np.exp(2j * np.pi * geometry.spacing_t * (k[:, None] * s[..., None, :]))


def _factored_gram(geometry, recv, basis):
    # The receive factor times the transmit factor (the Gram of the basis)
    # over n_r * n_t, made exactly Hermitian: ``0.5 * (g + g^H)`` with
    # ``g = recv * (B^H B) / (n_r n_t)`` (the sum commutes bit for bit).
    # In place and one matrix at a time, so that a batch's set-up holds no
    # L x L temporary per trial; g^H is built C-ordered, as adding a
    # transposed operand makes numpy buffer it.
    g = basis.conj().swapaxes(-1, -2) @ basis
    np.multiply(recv, g, out=g)
    g /= geometry.n_r * geometry.n_t
    for matrix in g.reshape((-1,) + g.shape[-2:]):
        sym = matrix.T.copy()
        np.conjugate(sym, out=sym)
        sym += matrix
        np.multiply(0.5, sym, out=matrix)
    return g


def _check_m_hat(geometry, paths, m_hat):
    m_hat = np.asarray(m_hat, dtype=float)
    if m_hat.shape != (geometry.n_t, len(paths)):
        raise InvalidInputError(
            f"m_hat shape {m_hat.shape} does not match ({geometry.n_t}, {len(paths)})"
        )
    require_unit_power_columns(m_hat)
    return m_hat


def subchannel_gram(geometry, paths, m_hat):
    """Gram matrix of the normalized modified subchannels.

    Entry (i, j) is the trace inner product of subchannels i and j,
    evaluated as the product of a receive-side phase sum and a
    transmit-side weighted phase sum divided by ``n_r * n_t``. The tests
    check it against the direct trace over explicitly assembled
    subchannels; this factored form is O(L^2 * n_t) instead.
    """
    m_hat = _check_m_hat(geometry, paths, m_hat)
    recv = receiver_factor_matrix(geometry, paths.aoa)
    g = _factored_gram(geometry, recv, _transmit_basis(geometry, paths.aod, m_hat))
    return SubchannelGram(g=g, indicator=correlation_indicator(g))


def correlation_indicator(g):
    """Per-row sum of squared off-diagonal Gram magnitudes."""
    g = np.asarray(g, dtype=complex)
    sq = np.abs(g) ** 2
    np.fill_diagonal(sq, 0.0)
    return sq.sum(axis=1)
