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
from .sof import run_sof_batch

# Indicator entries below this fraction of the maximum are floored before
# inversion, so a perfectly uncorrelated subchannel gets a large but
# finite weight instead of dividing by zero.
EPS_FLOOR = 1e-6


@dataclass
class PowerAllocation:
    """Closed-form power split across the allocated paths.

    Holds the raw inverse-correlation weights, the normalized power
    proportions, the budget scale factor, and the resulting per-path
    factors, all over the paths that actually carry energy.
    """

    w_hat: np.ndarray
    w: np.ndarray
    delta: float
    p: np.ndarray

    def __post_init__(self):
        self.w_hat = np.atleast_1d(np.asarray(self.w_hat, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if np.any(self.w <= 0) or abs(self.w.sum() - 1.0) > PROPORTION_SUM_TOL:
            raise InvalidInputError("proportions must be positive and sum to 1")
        if self.delta <= 0:
            raise InvalidInputError("scale factor must be positive")
        if np.any(self.p <= 0):
            raise InvalidInputError("power factors must be positive")


def cfpa_weights(indicator):
    """Inverse-correlation weights and their normalized proportions.

    The raw weight of subchannel l is ``max(indicator) / indicator[l]``
    with the denominator floored at ``EPS_FLOOR * max(indicator)``. An
    all-zero indicator (a fully uncorrelated set) degenerates to uniform
    proportions rather than an error.
    """
    g = np.atleast_1d(np.asarray(indicator, dtype=float))
    if g.ndim != 1 or g.size < 1:
        raise InvalidInputError("indicator must be a nonempty vector")
    if np.any(g < 0):
        raise InvalidInputError("indicator entries must be nonnegative")
    g_max = float(g.max())
    if g_max == 0.0:
        w_hat = np.ones_like(g)
    else:
        w_hat = g_max / np.maximum(g, EPS_FLOOR * g_max)
    return w_hat, w_hat / w_hat.sum()


def power_scaling(geometry, g, w):
    """Scale factor putting the proportion-weighted sum at the power budget.

    ``sqrt(n_t*n_r / tr(S^H S))`` for ``S`` the w-weighted sum of the
    modified subchannels. They have unit Frobenius norm and ``g`` is their
    Gram matrix, so ``tr(S^H S) = w^T Re(G) w``. Raises if the sum
    cancels.
    """
    g = np.asarray(g, dtype=complex)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if g.shape != (w.size, w.size):
        raise InvalidInputError("need one gram row and column per weight")
    if abs(w.sum() - 1.0) > PROPORTION_SUM_TOL:
        raise InvalidInputError("proportions must sum to 1")
    power = float(w @ g.real @ w)
    if power <= 0.0:
        raise DegenerateChannelError("weighted subchannel sum cancels to zero")
    return float(np.sqrt(geometry.n_t * geometry.n_r / power))


def power_factors(gains, w, delta):
    """Per-path factors ``p_l = w_l * delta / |gain_l|``.

    Equalizes the modified gain magnitudes at ``w_l * delta`` while the
    original gain phases pass through untouched (the factors are real and
    positive). Zero-magnitude gains must be dropped by the caller first.
    """
    magnitudes = np.abs(np.atleast_1d(np.asarray(gains, dtype=complex)))
    if np.any(magnitudes == 0.0):
        raise InvalidInputError(
            "zero-magnitude path gains carry no energy; drop them before allocation"
        )
    return np.atleast_1d(np.asarray(w, dtype=float)) * delta / magnitudes


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
    gains = paths.gains
    keep = np.abs(gains) > 0.0
    if not keep.any():
        raise DegenerateChannelError("every path gain is zero")
    n_paths = len(paths)
    if np.shape(m_hat) != (geometry.n_t, n_paths) or gram.indicator.shape != (n_paths,):
        raise InvalidInputError("m_hat and gram must match the geometry and path count")

    w_hat, w = cfpa_weights(gram.indicator[keep])
    delta = power_scaling(geometry, gram.g[np.ix_(keep, keep)], w)
    p_kept = power_factors(gains[keep], w, delta)
    allocation = PowerAllocation(w_hat=w_hat, w=w, delta=delta, p=p_kept)

    p_full = np.zeros(n_paths)
    p_full[keep] = p_kept
    pattern = PatternMatrix(m_hat=m_hat, p=p_full)
    if renormalize:
        h = assemble_pattern_channel(geometry, paths, pattern)
        power = float(np.sum(np.abs(h) ** 2))
        if power == 0.0:
            raise DegenerateChannelError("assembled pattern channel is zero")
        scale = np.sqrt(geometry.n_t * geometry.n_r / power)
        pattern = PatternMatrix(m_hat=m_hat, p=p_full * scale)
    return pattern, allocation


def design_patterns(geometry, path_sets, renormalize=True):
    """Full transmit-pattern design of path sets of one length.

    Correlation modification runs on the whole batch in lockstep
    (``run_sof_batch``), then power is allocated per path set. Returns
    one ``(pattern, allocation, state)`` per path set, in order, each
    bit-identical to ``design_pattern`` on that path set.
    """
    designs = []
    for paths, state in zip(path_sets, run_sof_batch(geometry, path_sets)):
        pattern, allocation = allocate_power(
            geometry, paths, state.m_hat, state.gram, renormalize=renormalize
        )
        designs.append((pattern, allocation, state))
    return designs


def design_pattern(geometry, paths, renormalize=True):
    """Full transmit-pattern design: correlation modification, then power.

    Returns ``(pattern, allocation, state)`` where ``state`` is the
    finished sequential-modification state the allocation was based on.
    """
    return design_patterns(geometry, [paths], renormalize=renormalize)[0]
