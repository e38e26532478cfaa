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
from .pattern import PatternMatrix, assemble_pattern_channel
from .sof import run_sof, run_sof_batch

# Indicator entries below this fraction of the maximum are floored before
# inversion, so a perfectly uncorrelated subchannel gets a large but
# finite weight instead of dividing by zero.
EPS_FLOOR = 1e-6


@dataclass
class PowerAllocation:
    """Closed-form power split across the allocated paths.

    Holds the raw inverse-correlation weights, the normalized power
    proportions, the budget scale factor, and the resulting per-path
    factors, all over the paths that actually carry energy; or T of each
    stacked.
    """

    w_hat: np.ndarray
    w: np.ndarray
    delta: float
    p: np.ndarray

    def __post_init__(self):
        self.w_hat = np.atleast_1d(np.asarray(self.w_hat, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if np.any(self.w <= 0) or np.any(np.abs(self.w.sum(axis=-1) - 1.0) > PROPORTION_SUM_TOL):
            raise InvalidInputError("proportions must be positive and sum to 1")
        if np.any(self.delta <= 0):
            raise InvalidInputError("scale factor must be positive")
        if np.any(self.p <= 0):
            raise InvalidInputError("power factors must be positive")


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


def power_scaling(geometry, g, w):
    """Scale factor putting the proportion-weighted sum at the power budget.

    ``sqrt(n_t*n_r / tr(S^H S))`` for ``S`` the w-weighted sum of the
    modified subchannels. They have unit Frobenius norm and ``g`` is their
    Gram matrix, so ``tr(S^H S) = w^T Re(G) w``. Raises if the sum
    cancels. Stacked Grams and proportions give one factor per row.
    """
    g = np.asarray(g, dtype=complex)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if g.shape != w.shape + w.shape[-1:]:
        raise InvalidInputError("need one gram row and column per weight")
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > PROPORTION_SUM_TOL):
        raise InvalidInputError("proportions must sum to 1")
    # Per row the same (1, L) @ (L, L) @ (L, 1) products as ``w @ G @ w``.
    power = (w[..., None, :] @ g.real @ w[..., :, None])[..., 0, 0]
    if np.any(power <= 0.0):
        raise DegenerateChannelError("weighted subchannel sum cancels to zero")
    return np.sqrt(geometry.n_t * geometry.n_r / power)


def power_factors(gains, w, delta):
    """Per-path factors ``p_l = w_l * delta / |gain_l|``.

    Equalizes the modified gain magnitudes at ``w_l * delta`` while the
    original gain phases pass through untouched (the factors are real and
    positive). Zero-magnitude gains must be dropped by the caller first.
    Stacked rows take one scale factor each.
    """
    magnitudes = np.abs(np.atleast_1d(np.asarray(gains, dtype=complex)))
    if np.any(magnitudes == 0.0):
        raise InvalidInputError(
            "zero-magnitude path gains carry no energy; drop them before allocation"
        )
    return np.atleast_1d(np.asarray(w, dtype=float)) * np.asarray(delta)[..., None] / magnitudes


def _closed_form(geometry, gains, g, indicator):
    # The allocation of one path set, or of a stack, without zero gains.
    w_hat, w = cfpa_weights(indicator)
    delta = power_scaling(geometry, g, w)
    return PowerAllocation(w_hat=w_hat, w=w, delta=delta, p=power_factors(gains, w, delta))


def _kept_allocation(geometry, gains, g, indicator):
    # One path set allocated on its paths of nonzero gain (zeros inside
    # the sums would move their bits); the dropped paths get p = 0.
    keep = np.abs(gains) > 0.0
    if not keep.any():
        raise DegenerateChannelError("every path gain is zero")
    allocation = _closed_form(geometry, gains[keep], g[np.ix_(keep, keep)], indicator[keep])
    p = np.zeros(gains.shape)
    p[keep] = allocation.p
    return allocation, p


def _renormalize(geometry, paths, m_hat, p, factors):
    # Scale each set's factors so its channel has tr(H H^H) = n_t n_r.
    h = assemble_pattern_channel(geometry, paths, PatternMatrix(m_hat=m_hat, p=p), factors)
    power = np.sum(np.abs(h.reshape(h.shape[:-2] + (-1,))) ** 2, axis=-1)
    if np.any(power == 0.0):
        raise DegenerateChannelError("assembled pattern channel is zero")
    return p * np.sqrt(geometry.n_t * geometry.n_r / power)[..., None]


def allocate_power(geometry, paths, m_hat, gram, renormalize=True):
    """Run the closed-form allocation and assemble the final pattern.

    ``gram`` is the ``SubchannelGram`` of the columns ``m_hat``: its
    indicator sets the power proportions and its Gram matrix the budget
    scale factor. Paths with zero gain are excluded from the allocation
    and receive a zero power factor. With ``renormalize=True`` (the
    default) the factors are afterwards rescaled uniformly so the
    assembled channel meets the power budget ``tr(H H^H) = n_t*n_r``
    exactly; the scale factor alone only guarantees this for the
    phase-free subchannel combination, and the gain phases perturb it.
    The returned ``PowerAllocation`` keeps the unrescaled closed-form
    quantities.

    Returns ``(pattern, allocation)``.
    """
    n_paths = len(paths)
    if np.shape(m_hat) != (geometry.n_t, n_paths) or gram.indicator.shape != (n_paths,):
        raise InvalidInputError("m_hat and gram must match the geometry and path count")
    allocation, p = _kept_allocation(geometry, paths.gains, gram.g, gram.indicator)
    if renormalize:
        p = _renormalize(geometry, paths, m_hat, p, None)
    return PatternMatrix(m_hat=m_hat, p=p), allocation


def design_patterns(geometry, paths, renormalize=True, factors=None):
    """Design the patterns of a stacked path set (``stack_paths``) at once.

    Lockstep correlation modification (``run_sof_batch``), then the
    allocation and renormalization on the (T, L) stacks, checked once per
    batch; a set with a zero gain is allocated alone, as in
    ``allocate_power``. ``factors`` act as in ``assemble_physical``.
    Returns stacked ``(m_hat, p)``, each row bit-identical to
    ``design_pattern`` on its path set.
    """
    state = run_sof_batch(geometry, paths)
    g, indicator = state.gram.g, state.gram.indicator
    full = np.all(np.abs(paths.gains) > 0.0, axis=-1)
    p = np.zeros(paths.gains.shape)
    p[full] = _closed_form(geometry, paths.gains[full], g[full], indicator[full]).p
    for t in np.flatnonzero(~full):
        p[t] = _kept_allocation(geometry, paths.gains[t], g[t], indicator[t])[1]
    if renormalize:
        p = _renormalize(geometry, paths, state.m_hat, p, factors)
    return state.m_hat, p


def design_pattern(geometry, paths, renormalize=True):
    """Full transmit-pattern design: correlation modification, then power.

    Returns ``(pattern, allocation, state)`` where ``state`` is the
    finished sequential-modification state the allocation was based on.
    The same kernels as ``design_patterns``, on a batch of one.
    """
    state = run_sof(geometry, paths)
    pattern, allocation = allocate_power(
        geometry, paths, state.m_hat, state.gram, renormalize=renormalize
    )
    return pattern, allocation, state
