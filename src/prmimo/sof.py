"""The sequential correlation modification and the state it leaves.

The design sees the channel only through the Gram matrix of the
normalized modified subchannels. This module builds it in factored form
(a receive-side times a transmit-side phase sum) at the neutral all-ones
columns and keeps it current while the columns change. Subchannels are
visited in decreasing order of their correlation level. Each visited
column is replaced by a nonnegative unit-power vector that
(approximately) minimizes its accumulated squared correlation with the
already-designed columns: the quadratic form of that objective is
assembled, its smallest eigenvector is projected onto the nonnegative
orthant, and the result is rescaled to the required norm. The procedure
is a feasible heuristic, not a global optimum; the tests bound its gap
against an exhaustive grid search at small sizes. The finished
``SofState`` holds the columns with their Gram matrix, the one value the
power allocation is based on.
"""

from dataclasses import dataclass

import numpy as np

from .channel import PathSet, steering_phases
from .errors import InvalidInputError, NumericalFailureError
from .numerics import COLUMN_NORM_RTOL, HERMITIAN_TOL


def _initial_state(geometry, paths):
    # The receive factor, the transmit basis and the Gram matrix of the
    # neutral all-ones columns, which ``run_sof`` starts from: the basis is
    # the conjugate transmit phases, and the Gram matrix is the receive
    # factor times the transmit factor (the Gram of the basis) over
    # n_r * n_t, made exactly Hermitian: ``0.5 * (g + g^H)`` with
    # ``g = recv * (B^H B) / (n_r n_t)`` (the sum commutes bit for bit).
    # In place and one matrix at a time, so that a batch's set-up holds no
    # L x L temporary per trial.
    # Receive factor entry (i, j) is sum_n exp(+j 2 pi d_r n (sin aoa_i -
    # sin aoa_j)); over n_r, its magnitude is the receive correlation.
    recv = steering_phases(geometry.n_r, geometry.spacing_r, paths.aoa)
    recv = recv.conj().swapaxes(-1, -2) @ recv
    basis = np.conjugate(steering_phases(geometry.n_t, geometry.spacing_t, paths.aod))
    g = basis.conj().swapaxes(-1, -2) @ basis
    np.multiply(recv, g, out=g)
    g /= geometry.n_r * geometry.n_t
    for matrix in g.reshape((-1,) + g.shape[-2:]):
        sym = np.conjugate(matrix.T, order="C")  # numpy buffers a transposed operand
        sym += matrix
        np.multiply(0.5, sym, out=matrix)
    return recv, basis, g


def _squared_off_diagonal(values, diagonal):
    # Squared magnitudes of Gram matrices, or of a step's target rows, with
    # the diagonal entries (at the index tuple ``diagonal``) set to 0.
    sq = np.abs(values)
    np.square(sq, out=sq)
    sq[diagonal] = 0.0
    return sq


@dataclass
class SofState:
    """Finished state of one sequential modification run, or T stacked.

    The visiting ``order`` (a permutation of the path indices), the (n_t, L)
    columns ``m_hat`` and the (L, L) Gram matrix ``gram`` of the normalized
    modified subchannels: finite, Hermitian within ``HERMITIAN_TOL``, with
    a unit diagonal. A stack adds a leading (T,) axis to each.
    """

    order: np.ndarray
    m_hat: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=int)
        self.m_hat = np.asarray(self.m_hat, dtype=float)
        self.gram = np.asarray(self.gram, dtype=complex)
        if self.m_hat.ndim not in (2, 3) or self.m_hat.shape[-1] < 1:
            raise InvalidInputError("m_hat must be (n_t, L) or (T, n_t, L) with L >= 1")
        stack, n_paths = self.m_hat.shape[:-2], self.m_hat.shape[-1]
        fit = stack + (n_paths, n_paths)
        if self.gram.shape != fit:
            raise InvalidInputError(f"gram shape {self.gram.shape} does not fit m_hat: need {fit}")
        if self.order.shape != stack + (n_paths,) or np.any(
            np.sort(self.order, axis=-1) != np.arange(n_paths)
        ):
            raise InvalidInputError("order must be a permutation of the path indices")
        # One matrix at a time, so the checks hold two L x L temporaries
        # (g^H - g, then its magnitudes) whatever the batch.
        for g in self.gram.reshape((-1, n_paths, n_paths)):
            if not np.isfinite(g).all():
                raise InvalidInputError("gram matrix contains non-finite entries")
            asymmetry = np.conjugate(g.T, order="C")  # numpy buffers a transposed operand
            asymmetry -= g
            if np.max(np.abs(asymmetry)) > HERMITIAN_TOL:
                raise InvalidInputError("gram matrix is not Hermitian within tolerance")
        if not np.all(np.abs(np.diagonal(self.gram, axis1=-2, axis2=-1) - 1.0) <= COLUMN_NORM_RTOL):
            raise InvalidInputError("gram diagonal must be 1 for normalized subchannels")

    @property
    def indicator(self):
        """Per-row sums of squared off-diagonal Gram magnitudes, (L,) or (T, L).

        Entry l is the total correlation of subchannel l with all others.
        """
        diagonal = np.arange(self.gram.shape[-1])
        return _squared_off_diagonal(self.gram, (..., diagonal, diagonal)).sum(axis=-1)


def solve_modification_vector(b_sum):
    """Feasible minimizer of ``m^T B m`` over nonnegative m, ``|m|^2 = n_t``.

    Takes a unit eigenvector of the smallest eigenvalue of ``(B + B^T) / 2``
    (numpy's ``eigh``, whose basis within a degenerate eigenvalue is
    LAPACK's), picks the sign with the larger positive mass (both signs
    are eigenvectors, and the wrong one can be annihilated by the clip),
    clips negatives to zero, and rescales to the required norm.

    ``b_sum`` is n_t x n_t, n_t >= 1, or a stack (..., n_t, n_t); the
    result then has shape (..., n_t), each row bit-identical to its own
    call. A ``b_sum`` that is non-finite, or overflows when symmetrized,
    raises ``InvalidInputError``; an eigensolve that does not converge
    raises ``NumericalFailureError`` stating the matrix norm.
    """
    b_sum = np.asarray(b_sum, dtype=float)
    n_t = b_sum.shape[-1] if b_sum.ndim >= 2 else 0
    if n_t < 1 or b_sum.shape[-2] != n_t:
        raise InvalidInputError(f"coefficient matrix shape {b_sum.shape} is not (..., n, n), n > 0")
    # Symmetrized first, so round-off in ``b_sum`` is tolerated (a no-op, bit
    # for bit, on symmetric input); the sum is non-finite where ``b_sum`` is or overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        sym = b_sum + b_sum.swapaxes(-1, -2)
    if not np.isfinite(sym).all():
        raise InvalidInputError("coefficient matrix contains non-finite entries or overflows")
    sym *= 0.5
    try:
        vectors = np.linalg.eigh(sym)[1]
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(sym))
        raise NumericalFailureError(
            f"symmetric eigendecomposition did not converge (norm {norm:.6g})"
        ) from exc
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
    # Never 0: the kept side of a unit vector has l1 mass >= 1/2. A stacked
    # (1, n) @ (n, 1) product is one BLAS dot per row, as ``candidate @
    # candidate`` is for one vector.
    norm_sq = (candidate[..., None, :] @ candidate[..., :, None])[..., 0, 0]
    candidate *= np.sqrt(n_t / norm_sq)[..., None]
    return candidate


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

    ``paths`` is one path set, run as a batch of one and returned
    unstacked, or a ``PathSet`` of (T, L) arrays, as ``draw_paths``
    returns. A batch's trials run in lockstep, so each row of the result
    is bit-identical to the call on its path set; ``montecarlo.trial_bytes``
    counts a batch's memory. The returned state is checked once per batch.

    Degenerate early steps make the design reproducible bit for bit only
    on the same LAPACK build and, at L = 160, BLAS thread count; campaigns
    and ``montecarlo.run_trials`` run on one (``numerics.one_blas_thread``).
    """
    if paths.gains.ndim == 1:
        state = run_sof(geometry, PathSet(paths.gains[None], paths.aod[None], paths.aoa[None]))
        return SofState(state.order[0], state.m_hat[0], state.gram[0])
    n_trials, n_paths = paths.gains.shape
    rows = np.arange(n_trials)[:, None]
    recv, basis, g = _initial_state(geometry, paths)
    # The squared off-diagonal Gram magnitudes and their row sums (the
    # indicator), refreshed in each target's row and column; with ``recv``
    # and ``g``, the 40 L^2 bytes per trial of ``montecarlo.trial_bytes``.
    diagonal = np.arange(n_paths)
    sq = _squared_off_diagonal(g, (..., diagonal, diagonal))
    indicator = sq.sum(axis=2)
    sin_aod = np.sin(paths.aod)
    order = np.empty((n_trials, n_paths), dtype=int)
    m_prior = np.ones((n_trials, geometry.n_t, n_paths))

    for step in range(n_paths):
        # The indicator is fresh each step, so its visited entries are masked in place.
        indicator[rows, order[:, :step]] = -np.inf
        target = order[:, step] = np.argmax(indicator, axis=1)
        if step == 0:
            continue
        sin_prior = sin_aod[rows, order[:, :step + 1]]
        b_sum = _penalty_matrix(geometry, recv, order, m_prior, sin_prior, step)
        new_col = solve_modification_vector(b_sum)
        m_prior[:, :, step] = new_col
        indicator = _refresh(geometry, recv, basis, g, sq, target, new_col, sin_prior[:, step])

    # Only the Gram and the columns outlive the loop.
    del recv, sq, basis
    m_hat = np.empty_like(m_prior)
    np.put_along_axis(m_hat, order[:, None, :], m_prior, axis=2)
    return SofState(order=order, m_hat=m_hat, gram=g)
