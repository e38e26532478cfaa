"""Transmit patterns, the channels they give, and capacity.

The transmit pattern enters the channel as a nonnegative per-antenna,
per-path gain matrix. This module holds the package's one channel
formula (the physical channel is its value at the all-ones
``PatternMatrix``) and its one capacity routine; the design sees the
channel only through the Gram matrix of the normalized modified
subchannels, which ``prmimo.sof.SofState`` holds.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import steering_phases
from .errors import InvalidInputError, NumericalFailureError
from .numerics import require_unit_power_columns


@dataclass
class PatternMatrix:
    """Nonnegative transmit pattern gains in factored form.

    ``m_hat`` holds the unit-power modification columns (squared column
    norm equal to the transmit antenna count), ``p`` the per-path power
    factors, and ``m = m_hat * diag(p)`` the combined pattern whose
    (k, l) entry is the sampled gain of antenna k toward path l. Entries
    are power gains only; the pattern carries no phase. Stacked
    (..., n_t, L) columns with (..., L) factors hold a stack of patterns.
    """

    m_hat: np.ndarray
    p: np.ndarray
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m_hat = np.asarray(self.m_hat, dtype=float)
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.m_hat.ndim < 2:
            raise InvalidInputError("m_hat must be a matrix or a stack of them")
        columns = self.m_hat.shape[:-2] + self.m_hat.shape[-1:]
        if self.p.shape != columns:
            raise InvalidInputError(
                f"p must have one entry per column, got {self.p.shape} for {columns} columns"
            )
        require_unit_power_columns(self.m_hat)
        if not np.isfinite(self.p).all():
            raise InvalidInputError("power factors must be finite")
        if np.any(self.p < 0):
            raise InvalidInputError("power factors must be nonnegative")
        self.m = self.m_hat * self.p[..., None, :]


def capacity(h, snr):
    """Channel capacity ``log2 det(I + snr/n_r * H H^H)`` in bits/s/Hz.

    ``snr`` is the transmit signal-to-noise ratio in linear units,
    positive and finite; equal power is radiated from every transmit
    antenna (no precoder). The determinant is taken over the eigenvalues
    of ``H H^H``, round-off negatives clamped to zero. A scalar ``snr``
    gives a ``float``; an array gives one capacity per entry from a
    single eigendecomposition, bit-identical to the scalar calls. ``h``
    may also be a (..., n_r, n_t) stack of channels, which adds its
    leading axes to the result, each entry bit-identical to its own call.
    A non-finite channel, or one whose ``H H^H`` overflows, is rejected.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] == 0:
        raise InvalidInputError(f"expected a channel matrix, got shape {h.shape}")
    snr = _check_snr(snr)
    gram = h @ h.conj().swapaxes(-1, -2)
    if not np.isfinite(gram).all():
        raise InvalidInputError("gram matrix contains non-finite entries")
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(gram))
        raise NumericalFailureError(
            f"Hermitian eigenvalue iteration did not converge (norm {norm:.6g})"
        ) from exc
    gamma = snr / h.shape[-2]
    lam = np.maximum(lam, 0.0).reshape(lam.shape[:-1] + (1,) * gamma.ndim + lam.shape[-1:])
    capacities = np.log2(1.0 + gamma[..., None] * lam).sum(axis=-1)
    return float(capacities) if capacities.ndim == 0 else capacities


def _check_snr(snr):
    # The SNR rule of ``capacity`` and ``ideal_capacity``, in linear units.
    snr = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(snr) & (snr > 0)):
        raise InvalidInputError(f"snr must be positive and finite, got {snr}")
    return snr


def ideal_capacity(geometry, snr):
    """Capacity of the maximum-capacity reference channel (analytic).

    The reference spreads the full power budget evenly over n_r equal
    singular values, giving ``n_r * log2(1 + snr*n_t/n_r)``. Accepts a
    scalar or an array of linear SNR values, positive and finite as
    ``capacity`` takes them.
    """
    snr = _check_snr(snr)
    return geometry.n_r * np.log2(1.0 + snr * geometry.n_t / geometry.n_r)


def assemble_pattern_channel(geometry, paths, pattern):
    """Channel matrix seen through the transmit pattern, shape (n_r, n_t).

    The package's one channel formula, ``A_R diag(gains) (A_T o M)^H``,
    with ``A_R`` (n_r, L) and ``A_T`` (n_t, L) the steering matrices of
    the arrivals and departures and ``o`` the element-wise product; equal
    (to round-off) to summing the per-path subchannels weighted by
    ``gains * p``, which the tests verify. The leading axes of a stacked
    pattern and of a stacked path set broadcast against each other, and
    the steering matrices are built once for all of them: a (2, T)
    pattern stack over T path sets gives (2, T, n_r, n_t) channels.
    """
    if not isinstance(pattern, PatternMatrix):
        raise InvalidInputError("pattern must be a PatternMatrix")
    stack, path_stack = pattern.m.shape[:-2], paths.gains.shape[:-1]
    broadcasts = all(1 in (a, b) or a == b for a, b in zip(stack[::-1], path_stack[::-1]))
    if pattern.m.shape[-2:] != (geometry.n_t, len(paths)) or not broadcasts:
        raise InvalidInputError(
            f"pattern shape {pattern.m.shape} does not fit n_t={geometry.n_t} "
            f"and paths of shape {paths.gains.shape}"
        )
    a_r = steering_phases(geometry.n_r, geometry.spacing_r, paths.aoa) / np.sqrt(geometry.n_r)
    a_t = steering_phases(geometry.n_t, geometry.spacing_t, paths.aod) / np.sqrt(geometry.n_t)
    return (a_r * paths.gains[..., None, :]) @ (a_t * pattern.m).conj().swapaxes(-1, -2)

