"""The subchannel Gram matrix and the sequential correlation modification.

The design sees the channel only through the Gram matrix of the
normalized modified subchannels. This module builds it in factored form
(a receive-side times a transmit-side phase sum) and keeps it current
while the columns change. Subchannels are visited in decreasing order of
their correlation level. Each visited column is replaced by a
nonnegative unit-power vector that (approximately) minimizes its
accumulated squared correlation with the already-designed columns: the
quadratic form of that objective is assembled, its smallest eigenvector
is projected onto the nonnegative orthant, and the result is rescaled to
the required norm. The procedure is a feasible heuristic, not a global
optimum; the tests bound its gap against an exhaustive grid search at
small sizes.
"""

from dataclasses import dataclass

import numpy as np

from .channel import stack_paths, steering_phases
from .errors import InvalidInputError, NumericalFailureError
from .numerics import COLUMN_NORM_RTOL, HERMITIAN_TOL, eig_sym, require_unit_power_columns


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
        # (g^H - g, then its magnitudes) whatever the batch.
        for g in self.g.reshape((-1,) + self.g.shape[-2:]):
            asymmetry = _conj_transpose(g)
            asymmetry -= g
            if np.max(np.abs(asymmetry)) > HERMITIAN_TOL:
                raise InvalidInputError("gram matrix is not Hermitian within tolerance")
        if not np.all(np.abs(np.diagonal(self.g, axis1=-2, axis2=-1) - 1.0) <= COLUMN_NORM_RTOL):
            raise InvalidInputError("gram diagonal must be 1 for normalized subchannels")
        if np.any(self.indicator < 0):
            raise InvalidInputError("indicator entries must be nonnegative")


def receiver_factor_matrix(geometry, aoa):
    """Pairwise receive-side phase sums.

    Entry (i, j) is ``sum_n exp(+j*2*pi*d_r*n*(sin aoa_i - sin aoa_j))``
    over the n_r elements; its magnitude divided by n_r is the receive
    correlation between arrivals i and j. Stacked arrivals stack it.
    """
    basis = steering_phases(geometry.n_r, geometry.spacing_r, aoa)
    return basis.conj().swapaxes(-1, -2) @ basis


def _transmit_basis(geometry, aod, m_hat):
    # Columns m_hat_i weighted by the conjugate transmit phases; the Gram
    # of this basis is the transmit factor of the subchannel Gram matrix.
    phases = steering_phases(geometry.n_t, geometry.spacing_t, aod)
    return m_hat * np.conjugate(phases, out=phases)


def _factored_gram(geometry, recv, basis):
    # The receive factor times the transmit factor (the Gram of the basis)
    # over n_r * n_t, made exactly Hermitian: ``0.5 * (g + g^H)`` with
    # ``g = recv * (B^H B) / (n_r n_t)`` (the sum commutes bit for bit).
    # In place and one matrix at a time, so that a batch's set-up holds no
    # L x L temporary per trial.
    g = basis.conj().swapaxes(-1, -2) @ basis
    np.multiply(recv, g, out=g)
    g /= geometry.n_r * geometry.n_t
    for matrix in g.reshape((-1,) + g.shape[-2:]):
        sym = _conj_transpose(matrix)
        sym += matrix
        np.multiply(0.5, sym, out=matrix)
    return g


def subchannel_gram(geometry, paths, m_hat):
    """Gram matrix of the normalized modified subchannels.

    Entry (i, j) is the trace inner product of subchannels i and j,
    evaluated as the product of a receive-side phase sum and a
    transmit-side weighted phase sum divided by ``n_r * n_t``. The tests
    check it against the direct trace over explicitly assembled
    subchannels; this factored form is O(L^2 * n_t) instead.

    ``paths`` is one path set or a stacked one (``stack_paths``), with
    ``m_hat`` stacked alike; each row is bit-identical to the call on
    its path set.
    """
    m_hat = np.asarray(m_hat, dtype=float)
    if m_hat.shape != paths.gains.shape[:-1] + (geometry.n_t, len(paths)):
        raise InvalidInputError(
            f"m_hat shape {m_hat.shape} does not match {len(paths)} paths at n_t={geometry.n_t}"
        )
    require_unit_power_columns(m_hat)
    _, _, g, _, indicator = _initial_state(geometry, paths, m_hat)
    return SubchannelGram(g=g, indicator=indicator)


def correlation_indicator(g):
    """Per-row sum of squared off-diagonal Gram magnitudes (of each matrix of a stack)."""
    g = np.asarray(g, dtype=complex)
    diagonal = np.arange(g.shape[-1])
    return _squared_off_diagonal(g, (..., diagonal, diagonal)).sum(axis=-1)


def _conj_transpose(matrix):
    # g^H of one matrix, built C-ordered: adding a transposed operand
    # makes numpy buffer it.
    result = matrix.T.copy()
    np.conjugate(result, out=result)
    return result


def _squared_off_diagonal(values, diagonal):
    # Squared magnitudes of Gram matrices, or of a step's target rows, with
    # the diagonal entries (at the index tuple ``diagonal``) set to 0.
    sq = np.abs(values)
    np.square(sq, out=sq)
    sq[diagonal] = 0.0
    return sq


@dataclass
class SofState:
    """Finished state of one sequential modification run, or T stacked."""

    order: np.ndarray
    m_hat: np.ndarray
    gram: SubchannelGram

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=int)
        n_paths = self.m_hat.shape[-1]
        if self.order.shape != self.m_hat.shape[:-2] + (n_paths,) or np.any(
            np.sort(self.order, axis=-1) != np.arange(n_paths)
        ):
            raise InvalidInputError("order must be a permutation of the path indices")


def solve_modification_vector(b_sum, n_t):
    """Feasible minimizer of ``m^T B m`` over nonnegative m, ``|m|^2 = n_t``.

    Takes a unit eigenvector of the smallest eigenvalue, picks the sign
    with the larger positive mass (both signs are eigenvectors, and the
    wrong one can be annihilated by the clip), clips negatives to zero,
    and rescales to the required norm.

    ``b_sum`` may be a stack of shape (..., n_t, n_t); the result then
    has shape (..., n_t), each row bit-identical to its own call.
    """
    b_sum = np.asarray(b_sum, dtype=float)
    if b_sum.shape[-2:] != (n_t, n_t):
        raise InvalidInputError(
            f"coefficient matrix shape {b_sum.shape} does not match n_t={n_t}"
        )
    _, vectors = eig_sym(b_sum)
    u = vectors[..., 0]
    pos = np.maximum(u, 0.0)
    neg = np.maximum(-u, 0.0)
    pos_mass = np.add.reduce(pos, axis=-1)
    neg_mass = np.add.reduce(neg, axis=-1)
    flip = neg_mass > pos_mass
    tie = neg_mass == pos_mass
    if np.count_nonzero(tie):
        # Exact tie: orient so the first nonzero entry is positive.
        first = np.take_along_axis(u, np.argmax(u != 0.0, axis=-1)[..., None], axis=-1)
        flip |= tie & (first[..., 0] < 0.0)
    # The clipped oriented vector; sqrt(n_t) > 0 commutes with the clip.
    candidate = np.where(flip[..., None], neg, pos)
    candidate *= np.sqrt(n_t)
    # A stacked (1, n) @ (n, 1) product is one BLAS dot per row, as
    # ``candidate @ candidate`` is for one vector.
    norm_sq = (candidate[..., None, :] @ candidate[..., :, None])[..., 0, 0]
    if np.count_nonzero(norm_sq) < norm_sq.size:
        raise NumericalFailureError(
            "clipped eigenvector collapsed to zero",
            matrix_norm=float(np.linalg.norm(b_sum[norm_sq == 0.0][0])),
        )
    candidate *= np.sqrt(n_t / norm_sq)[..., None]
    return candidate


def _initial_state(geometry, paths, m_hat):
    # The receive factor, transmit basis, Gram matrix, its squared
    # off-diagonal magnitudes and their row sums (the indicator) of the
    # columns ``m_hat``; the L x L ones are the 40 L^2 bytes per trial of
    # ``montecarlo.trial_bytes``.
    recv = receiver_factor_matrix(geometry, paths.aoa)
    basis = _transmit_basis(geometry, paths.aod, m_hat)
    g = _factored_gram(geometry, recv, basis)
    diagonal = np.arange(g.shape[-1])
    sq = _squared_off_diagonal(g, (..., diagonal, diagonal))
    return recv, basis, g, sq, sq.sum(axis=-1)


def _next_target(indicator, visited):
    # Each trial's unvisited subchannel of highest indicator, marked
    # visited. ``visited`` is -inf on visited indices and 0 elsewhere: added
    # to the indicator, it masks them without changing any other entry.
    target = np.argmax(indicator + visited, axis=1)
    visited[np.arange(len(target)), target] = -np.inf
    return target


def _penalty_matrix(geometry, recv, order, m_prior, sin_prior, step):
    # The real n_t x n_t penalty ``b_sum`` of step ``step`` against the
    # columns designed before it, weighted by |rho^R|^2; ``m_prior`` and
    # ``sin_prior`` are in visiting order, so those columns are a slice.
    n_t, k = geometry.n_t, np.arange(geometry.n_t)
    trials_col = np.arange(len(order))[:, None]
    weights = np.abs(recv[trials_col, order[:, step, None], order[:, :step]] / geometry.n_r) ** 2
    # Coupling columns m_j exp(j 2 pi d_t k (sin phi_t - sin phi_j)) / n_t,
    # taken where the clip left m_j nonzero only (about half the entries)
    # and scattered into a zeroed stack, whose +0 terms cannot move the
    # product's sums; numpy divides a complex by n_t as a product with
    # 1 / n_t. The flat temporaries go before the product, so that these
    # (T, n_t, step) and (T, n_t, n_t) stacks stay most of a step's memory.
    m = m_prior[:, :, :step]
    live = np.flatnonzero(m != 0.0)
    delta = sin_prior[:, step, None, None] - sin_prior[:, None, :step]
    phase = 1j * ((k[:, None] * delta).reshape(-1)[live] * (2 * np.pi * geometry.spacing_t))
    np.exp(phase, out=phase)
    phase *= m.reshape(-1)[live]
    phase *= 1.0 / n_t
    b_cols = np.zeros(m.shape, dtype=complex)
    b_cols.reshape(-1)[live] = phase
    del m, delta, phase, live
    weighted = b_cols.conj()
    weighted *= weights[:, None, :]
    # A real copy: the complex product and the coupling stacks are freed
    # on return, before the eigensolve.
    return (weighted @ b_cols.swapaxes(1, 2)).real.copy()


def _refresh(geometry, recv, basis, g, sq, target, new_col, sin_target):
    # Writes the new column into the transmit basis and the target's row and
    # column into the Gram matrix (entry (i, j) keeps the value of the later
    # visit; the diagonal stays real) and its squared magnitudes; returns
    # the new indicator.
    trials, n_r, n_t = np.arange(len(target)), geometry.n_r, geometry.n_t
    tx_phase = 2j * np.pi * geometry.spacing_t * np.arange(n_t)
    column = new_col * np.exp(tx_phase * sin_target[:, None])
    basis[trials, :, target] = column
    row = recv[trials, target] * (column.conj()[:, None, :] @ basis)[:, 0] / (n_r * n_t)
    g[trials, target, :] = row
    g[trials, :, target] = row.conj()
    g[trials, target, target] = row[trials, target].real
    row_sq = _squared_off_diagonal(row, (trials, target))
    sq[trials, target, :] = row_sq
    sq[trials, :, target] = row_sq
    return sq.sum(axis=2)


def run_sof(geometry, paths):
    """Sequentially redesign the modification columns for all paths.

    Starts from the neutral all-ones columns and visits every subchannel
    once, the most correlated unvisited one first (ties go to the lowest
    index). The first visited column stays neutral; each later one is
    ``solve_modification_vector`` of its quadratic penalty against the
    columns already designed, and the Gram matrix and indicator are then
    refreshed in the target's row and column only.

    ``paths`` is one path set or a stacked one (``stack_paths``); one set
    runs as a batch of one and its state comes back unstacked. The trials
    of a batch run in lockstep, so each row of the result is bit-identical
    to the call on its path set; ``montecarlo.trial_bytes`` counts a
    batch's memory. The returned state is checked once per batch.

    Degenerate early steps make the design reproducible bit for bit only
    on the same LAPACK build and, at L = 160, BLAS thread count; campaigns
    and ``montecarlo.run_trials`` run on one (``numerics.one_blas_thread``).
    """
    if paths.gains.ndim == 1:
        state = run_sof(geometry, stack_paths([paths]))
        gram = SubchannelGram(g=state.gram.g[0], indicator=state.gram.indicator[0])
        return SofState(order=state.order[0], m_hat=state.m_hat[0], gram=gram)
    n_trials, n_paths = paths.gains.shape
    trials = np.arange(n_trials)
    ones = np.ones((geometry.n_t, n_paths))
    recv, basis, g, sq, indicator = _initial_state(geometry, paths, ones)
    sin_aod = np.sin(paths.aod)
    order = np.empty((n_trials, n_paths), dtype=int)
    visited = np.zeros((n_trials, n_paths))
    m_prior = np.ones((n_trials, geometry.n_t, n_paths))
    sin_prior = np.empty((n_trials, n_paths))

    for step in range(n_paths):
        target = _next_target(indicator, visited)
        order[:, step] = target
        sin_prior[:, step] = sin_aod[trials, target]
        if step == 0:
            continue
        b_sum = _penalty_matrix(geometry, recv, order, m_prior, sin_prior, step)
        new_col = solve_modification_vector(b_sum, geometry.n_t)
        m_prior[:, :, step] = new_col
        indicator = _refresh(geometry, recv, basis, g, sq, target, new_col, sin_prior[:, step])

    # Only the Gram and the columns outlive the loop.
    del recv, sq, basis
    m_hat = np.empty_like(m_prior)
    np.put_along_axis(m_hat, order[:, None, :], m_prior, axis=2)
    return SofState(order=order, m_hat=m_hat, gram=SubchannelGram(g=g, indicator=indicator))
