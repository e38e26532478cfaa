"""Closed-form power allocation across modified subchannels.

Transmit power is split in inverse proportion to each subchannel's
correlation level (the most independent subchannel gets the most power),
scaled to the channel power budget, and folded into the final pattern
matrix as per-path factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, InvalidInputError
from .numerics import PROPORTION_SUM_TOL
from .pattern import PatternMatrix
from .sof import run_sof

# Indicator entries below this fraction of the maximum are floored before
# inversion, so a perfectly uncorrelated subchannel gets a large but
# finite weight instead of dividing by zero.
EPS_FLOOR = 1e-6


@dataclass
class PowerAllocation:
    """Closed-form power split across the paths.

    Holds the raw inverse-correlation weights and the normalized power
    proportions, one entry per path and 0 on the paths that carry no
    energy; or T of each stacked.
    """

    w_hat: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.w_hat = np.atleast_1d(np.asarray(self.w_hat, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if np.any(self.w < 0) or np.any(np.abs(self.w.sum(axis=-1) - 1.0) > PROPORTION_SUM_TOL):
            raise InvalidInputError("proportions must be nonnegative and sum to 1")


def cfpa_weights(indicator):
    """Inverse-correlation weights and their normalized proportions.

    The raw weight of subchannel l is ``max(indicator) / indicator[l]``
    with the denominator floored at ``EPS_FLOOR * max(indicator)``. An
    all-zero indicator (a fully uncorrelated set) degenerates to uniform
    proportions rather than an error. Works row by row on (T, L) stacks.
    """
    g = np.atleast_1d(np.asarray(indicator, dtype=float))
    if g.ndim > 2 or g.shape[-1] < 1:
        raise InvalidInputError("indicator must be a nonempty vector")
    if np.any(g < 0):
        raise InvalidInputError("indicator entries must be nonnegative")
    g_max = g.max(axis=-1, keepdims=True)
    w_hat = np.ones_like(g)
    np.divide(g_max, np.maximum(g, EPS_FLOOR * g_max), out=w_hat, where=g_max > 0.0)
    return w_hat, w_hat / w_hat.sum(axis=-1, keepdims=True)


def _gram_power(g, c):
    # tr(S^H S) for S = sum_l c_l S_l over the unit-norm subchannels S_l
    # whose Gram matrix is g: Re(c^H G c), per row of a stack the same
    # (1, L) @ (L, L) @ (L, 1) products as for one Gram. Raises if the
    # sum cancels (round-off can take the form below zero).
    power = (c.conj()[..., None, :] @ g @ c[..., :, None])[..., 0, 0].real
    if np.any(power <= 0.0):
        raise DegenerateChannelError("weighted subchannel sum cancels to zero")
    return power


def allocate_power(geometry, paths, m_hat, gram):
    """Run the closed-form allocation and build the final pattern.

    ``gram`` is the ``SubchannelGram`` of the columns ``m_hat``: its
    indicator sets the power proportions and its Gram matrix the power
    of the pattern channel. Paths with zero gain are left out: their
    weight, proportion and factor are 0, and the weight maximum and the
    normalization run over the other paths. The per-path factors are
    ``w_hat / |gain|``, scaled by one factor so the pattern channel meets
    the power budget ``tr(H H^H) = n_t*n_r``. The channel's power is read
    off the Gram matrix, ``Re(c^H G c)`` with ``c = gains * p``, so no
    channel is assembled. The paper's scale factor, which puts the
    phase-free sum of the subchannels at the budget, and the
    normalization of the proportions are constant factors of ``p``: this
    one scale absorbs them.

    ``paths`` is one path set or a stacked one (``stack_paths``), with
    ``m_hat`` and ``gram`` stacked alike; each row is bit-identical to
    the call on its path set.

    Returns ``(pattern, allocation)``.
    """
    gains = paths.gains
    if np.shape(m_hat) != gains.shape[:-1] + (geometry.n_t, len(paths)) or (
        gram.indicator.shape != gains.shape
    ):
        raise InvalidInputError("m_hat and gram must match the geometry and path count")
    keep = np.abs(gains) > 0.0
    if not np.all(np.any(keep, axis=-1)):
        raise DegenerateChannelError("every path gain is zero")
    # A zero indicator entry cannot raise the maximum; the weights of the
    # dropped paths are then zeroed and the proportions taken again.
    w_hat = np.where(keep, cfpa_weights(np.where(keep, gram.indicator, 0.0))[0], 0.0)
    allocation = PowerAllocation(w_hat=w_hat, w=w_hat / w_hat.sum(axis=-1, keepdims=True))
    p = w_hat / np.where(keep, np.abs(gains), 1.0)
    p *= np.sqrt(geometry.n_t * geometry.n_r / _gram_power(gram.g, gains * p))[..., None]
    return PatternMatrix(m_hat=m_hat, p=p), allocation


def design_pattern(geometry, paths):
    """Full transmit-pattern design: correlation modification, then power.

    ``run_sof`` followed by ``allocate_power``, on one path set or a
    stacked one. Returns ``(pattern, allocation, state)`` where ``state``
    is the finished sequential-modification state the allocation was
    based on. Like ``run_sof``, it runs on the caller's BLAS thread count,
    which can move its result by ulps; ``montecarlo.run_trials`` pins it
    to one thread.
    """
    state = run_sof(geometry, paths)
    pattern, allocation = allocate_power(geometry, paths, state.m_hat, state.gram)
    return pattern, allocation, state
