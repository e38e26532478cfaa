"""Sequential redesign of correlation-modification vectors.

Subchannels are visited in decreasing order of their correlation level.
Each visited column is replaced by a nonnegative unit-power vector that
(approximately) minimizes its accumulated squared correlation with the
already-designed columns: the quadratic form of that objective is
assembled, its smallest eigenvector is projected onto the nonnegative
orthant, and the result is rescaled to the required norm. The procedure
is a feasible heuristic, not a global optimum; the tests bound its gap
against an exhaustive grid search at small sizes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .numerics import eig_sym
from .pattern import (
    SubchannelGram,
    _transmit_basis,
    receiver_factor_matrix,
    subchannel_gram,
)


@dataclass
class SofState:
    """Finished state of one sequential modification run."""

    order: np.ndarray
    m_hat: np.ndarray
    gram: SubchannelGram

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=int)
        n_paths = self.m_hat.shape[1]
        if sorted(self.order.tolist()) != list(range(n_paths)):
            raise InvalidInputError("order must be a permutation of the path indices")


def solve_modification_vector(b_sum, n_t):
    """Feasible minimizer of ``m^T B m`` over nonnegative m, ``|m|^2 = n_t``.

    Takes a unit eigenvector of the smallest eigenvalue, picks the sign
    with the larger positive mass (both signs are eigenvectors, and the
    wrong one can be annihilated by the clip), clips negatives to zero,
    and rescales to the required norm.
    """
    b_sum = np.asarray(b_sum, dtype=float)
    if b_sum.shape != (n_t, n_t):
        raise InvalidInputError(
            f"coefficient matrix shape {b_sum.shape} does not match n_t={n_t}"
        )
    _, vectors = eig_sym(b_sum)
    u = vectors[:, 0]
    pos_mass = float(np.maximum(u, 0.0).sum())
    neg_mass = float(np.maximum(-u, 0.0).sum())
    if neg_mass > pos_mass:
        u = -u
    elif neg_mass == pos_mass:
        # Exact tie: orient so the first nonzero entry is positive.
        nonzero = np.flatnonzero(u)
        if nonzero.size and u[nonzero[0]] < 0:
            u = -u
    candidate = np.maximum(np.sqrt(n_t) * u, 0.0)
    norm_sq = float(candidate @ candidate)
    if norm_sq == 0.0:
        raise NumericalFailureError(
            "clipped eigenvector collapsed to zero",
            matrix_norm=float(np.linalg.norm(b_sum)),
        )
    return candidate * np.sqrt(n_t / norm_sq)


def run_sof(geometry, paths):
    """Sequentially redesign the modification columns for all paths.

    Starts from the neutral all-ones matrix, picks the subchannel with
    the highest correlation indicator (ties go to the lowest index), and
    leaves that first column untouched. Every later iteration masks the
    already-visited indices, picks the worst remaining subchannel,
    accumulates the quadratic penalty against the current columns of all
    previously visited indices, solves for the new column, and refreshes
    the Gram matrix incrementally (only one row and column change).

    Returns the completed state; the Gram inside it matches a from-
    scratch recomputation to tight tolerance, which the tests check.

    In the early steps the smallest eigenvalue of the penalty matrix is
    often degenerate, so a round-off change in that matrix can pick a
    different null vector and a visibly different design; the result is
    reproducible bit for bit only with the same arithmetic on the same
    LAPACK build.
    """
    n_paths = len(paths)
    n_t, n_r = geometry.n_t, geometry.n_r
    m_hat = np.ones((n_t, n_paths))
    initial = subchannel_gram(geometry, paths, m_hat)
    g = initial.g.copy()
    indicator = initial.indicator.copy()

    recv = receiver_factor_matrix(geometry, paths.aoa)
    recv_sq = np.abs(recv / n_r) ** 2
    basis = _transmit_basis(geometry, paths.aod, m_hat)
    sin_aod = np.sin(paths.aod)
    k = np.arange(n_t)

    # Squared Gram magnitudes with a zero diagonal: the indicator is their
    # row sum, and each step changes only the target row and column.
    sq = np.abs(g) ** 2
    np.fill_diagonal(sq, 0.0)

    order = np.empty(n_paths, dtype=int)
    order[0] = int(np.argmax(indicator))
    selected = np.zeros(n_paths, dtype=bool)
    selected[order[0]] = True

    for step in range(1, n_paths):
        masked = np.where(selected, -np.inf, indicator)
        target = int(np.argmax(masked))
        prior = order[:step]

        # |rho^R|^2 weights against each previously designed column.
        weights = recv_sq[target, prior]
        phase = np.exp(
            2j
            * np.pi
            * geometry.spacing_t
            * np.outer(k, sin_aod[target] - sin_aod[prior])
        )
        b_cols = m_hat[:, prior] * phase / n_t
        b_sum = ((b_cols.conj() * weights) @ b_cols.T).real

        new_col = solve_modification_vector(b_sum, n_t)
        m_hat[:, target] = new_col

        basis[:, target] = new_col * np.exp(
            2j * np.pi * geometry.spacing_t * k * sin_aod[target]
        )
        row = recv[target, :] * (basis[:, target].conj() @ basis) / (n_r * n_t)
        g[target, :] = row
        g[:, target] = row.conj()
        g[target, target] = row[target].real
        sq[target, :] = np.abs(row) ** 2
        sq[target, target] = 0.0
        sq[:, target] = sq[target, :]
        indicator = sq.sum(axis=1)

        order[step] = target
        selected[target] = True

    gram = SubchannelGram(g=g, indicator=indicator)
    return SofState(order=order, m_hat=m_hat, gram=gram)
