"""Closed-form power allocation across modified subchannels.

Based on the ``SofState`` the correlation modification leaves, transmit
power is split in inverse proportion to each subchannel's correlation
level (the most independent subchannel gets the most power), scaled to
the channel power budget, and folded into the final pattern as factors.
"""

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .pattern import PatternMatrix
from .sof import run_sof

# Indicator entries below this fraction of the maximum are floored before
# inversion, so a perfectly uncorrelated subchannel gets a large but
# finite weight instead of dividing by zero.
EPS_FLOOR = 1e-6


def _gram_power(g, c):
    # tr(S^H S) for S = sum_l c_l S_l over the unit-norm subchannels S_l
    # whose Gram matrix is g: Re(c^H G c), per row of a stack the same
    # (1, L) @ (L, L) @ (L, 1) products as for one Gram. Raises if the
    # sum cancels (round-off can take the form below zero).
    power = (c.conj()[..., None, :] @ g @ c[..., :, None])[..., 0, 0].real
    if np.any(power <= 0.0):
        raise NumericalFailureError("weighted subchannel sum cancels to zero")
    return power


def allocate_power(geometry, paths, state):
    """Run the closed-form allocation on ``state`` and build the final pattern.

    ``state`` is the ``SofState`` of ``paths``, as ``run_sof`` returns it.
    Its indicator I sets the weights: ``max(I) / I_l``, the denominator
    floored at ``EPS_FLOOR * max(I)``, and all ones for an all-zero
    indicator; a non-finite entry, which a user-built Gram can give,
    raises ``InvalidInputError``. Paths with zero gain are left out: their
    weight and factor are 0, and the maximum runs over the other paths; a
    path set with no nonzero gain, which drawn paths cannot be, raises
    ``InvalidInputError``. The factors, the weights over ``|gain|``, take
    one scale so the pattern channel meets the power budget ``n_t*n_r``,
    its power read off the Gram matrix as ``Re(c^H G c)``, ``c = gains * p``;
    a power that cancels to zero raises ``NumericalFailureError``. The
    paper's scale factor and the normalization of the proportions are
    constant factors of ``p``: this one scale absorbs them.

    ``paths`` is one path set or a ``PathSet`` of (T, L) arrays, as
    ``draw_paths`` returns, with ``state`` stacked alike; each row is
    bit-identical to the call on its path set. Returns the
    ``PatternMatrix`` of the state's columns.
    """
    gains = paths.gains
    if state.m_hat.shape != gains.shape[:-1] + (geometry.n_t, len(paths)):
        raise InvalidInputError("state must match the geometry and path count")
    keep = np.abs(gains) > 0.0
    if not np.all(np.any(keep, axis=-1)):
        raise InvalidInputError("every path gain is zero")
    # Dropped paths: a 0 indicator entry, which cannot raise the maximum, and weight 0.
    indicator = np.where(keep, state.indicator, 0.0)
    if not np.isfinite(indicator).all():
        raise InvalidInputError("indicator entries must be finite")
    top = indicator.max(axis=-1, keepdims=True)
    w_hat = np.where(keep, 1.0, 0.0)
    np.divide(top, np.maximum(indicator, EPS_FLOOR * top), out=w_hat, where=keep & (top > 0.0))
    p = w_hat / np.where(keep, np.abs(gains), 1.0)
    p *= np.sqrt(geometry.n_t * geometry.n_r / _gram_power(state.gram, gains * p))[..., None]
    return PatternMatrix(m_hat=state.m_hat, p=p)


def design_pattern(geometry, paths):
    """Full transmit-pattern design: correlation modification, then power.

    ``run_sof`` followed by ``allocate_power``, on one path set or a
    stacked one. Returns ``(pattern, state)`` where ``state`` is the
    finished sequential-modification state the allocation was based on.
    Like ``run_sof``, it runs on the caller's BLAS thread count, which
    can move its result by ulps; ``montecarlo.run_trials`` pins it to one
    thread.
    """
    state = run_sof(geometry, paths)
    return allocate_power(geometry, paths, state), state
