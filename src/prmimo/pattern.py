"""Pattern-modified channels and their capacity.

The transmit pattern enters the channel as a nonnegative per-antenna,
per-path gain matrix. This module assembles the modified channel and
evaluates its capacity; the Gram matrix of the normalized modified
subchannels, through which the design sees the channel, is in
``prmimo.sof``.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import channel_factors
from .errors import InvalidInputError, NumericalFailureError
from .numerics import require_unit_power_columns


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
    snr = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(snr) & (snr > 0)):
        raise InvalidInputError(f"snr must be positive and finite, got {snr}")
    gram = h @ h.conj().swapaxes(-1, -2)
    if not np.isfinite(gram).all():
        raise InvalidInputError("gram matrix contains non-finite entries")
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(gram))
        raise NumericalFailureError(
            f"Hermitian eigenvalue iteration did not converge (norm {norm:.6g})",
            matrix_norm=norm,
        ) from exc
    gamma = snr / h.shape[-2]
    lam = np.maximum(lam, 0.0).reshape(lam.shape[:-1] + (1,) * gamma.ndim + lam.shape[-1:])
    capacities = np.log2(1.0 + gamma[..., None] * lam).sum(axis=-1)
    return float(capacities) if capacities.ndim == 0 else capacities


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
