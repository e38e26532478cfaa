"""Dense linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around ``numpy.linalg`` so the rest of
the package can rely on a fixed eigenvalue ordering, explicit handling
of nearly-PSD Gram matrices, and uniform error reporting.
"""

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Relative level (against the Frobenius norm) below which a negative Gram
# eigenvalue is treated as round-off and clamped to zero; anything more
# negative is rejected as a genuinely non-PSD input.
PSD_CLAMP_REL = 1e-8

# Relative tolerance on the unit-power invariant of modification columns:
# a column's squared norm must lie within COLUMN_NORM_RTOL * n_t of n_t
# (equivalently, a subchannel Gram diagonal within COLUMN_NORM_RTOL of 1).
# The design's own round-off stays below 1e-15.
COLUMN_NORM_RTOL = 1e-13


def symmetrize(b):
    """Return ``(B + B^T) / 2``; a no-op (bitwise) for symmetric input."""
    b = np.asarray(b, dtype=float)
    return 0.5 * (b + b.T)


def _require_square(a, name):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def require_unit_power_columns(m_hat):
    """Check a modification matrix: nonnegative columns of squared norm n_t.

    ``n_t`` is the row count. Non-finite entries fail the norm check.
    """
    if np.any(m_hat < 0):
        raise InvalidInputError("m_hat entries must be nonnegative")
    n_t = m_hat.shape[0]
    deviation = np.abs(np.sum(m_hat**2, axis=0) - n_t)
    if not np.all(deviation <= COLUMN_NORM_RTOL * n_t):
        raise InvalidInputError(
            f"every m_hat column needs squared norm {n_t}, "
            f"worst deviation {float(np.max(deviation)):.3g}"
        )


def eig_sym(b):
    """Eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    b : (n, n) array_like
        Real symmetric matrix. The input is symmetrized by averaging
        first, so accumulation round-off from the caller is tolerated.

    Returns
    -------
    (eigenvalues, eigenvectors)
        numpy's ``eigh`` result: ascending eigenvalues and the matching
        orthonormal eigenvectors as columns. Within a degenerate
        eigenvalue the basis is whatever LAPACK produced.

    Raises
    ------
    InvalidInputError
        If the input is not square or contains non-finite entries.
    NumericalFailureError
        If the iteration fails to converge; carries the matrix norm.
    """
    b = np.asarray(b, dtype=float)
    _require_square(b, "matrix")
    _require_finite(b, "matrix")
    sym = symmetrize(b)
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(sym))
        raise NumericalFailureError(
            f"symmetric eigendecomposition did not converge (norm {norm:.6g})",
            matrix_norm=norm,
        ) from exc


def logdet_capacity_kernel(g, gamma):
    """``log2 det(I + gamma * G)`` for a Hermitian PSD Gram matrix ``G``.

    Evaluated through the eigenvalues of ``G`` rather than a determinant,
    so the result stays finite and nonnegative for rank-deficient inputs.
    Eigenvalues in ``[-PSD_CLAMP_REL * ||G||_F, 0)`` are treated as
    round-off on a PSD matrix and clamped to zero; anything more negative
    raises ``InvalidInputError``.

    ``gamma`` may be a scalar (a ``float`` is returned) or an array of
    positive values (an array of the same shape is returned). The
    eigenvalues do not depend on ``gamma``, so they are computed once for
    the whole array, and entry ``k`` equals the scalar call at
    ``gamma[k]`` bit for bit.
    """
    g = np.asarray(g, dtype=complex)
    _require_square(g, "gram matrix")
    _require_finite(g, "gram matrix")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise InvalidInputError(f"gamma must be positive, got {gamma}")
    try:
        lam = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(g))
        raise NumericalFailureError(
            f"Hermitian eigenvalue iteration did not converge (norm {norm:.6g})",
            matrix_norm=norm,
        ) from exc
    floor = -PSD_CLAMP_REL * float(np.linalg.norm(g))
    if lam.size and lam[0] < floor:
        raise InvalidInputError(
            f"gram matrix has eigenvalue {lam[0]:.6g}, below the PSD tolerance {floor:.6g}"
        )
    lam = np.maximum(lam, 0.0)
    capacities = np.log2(1.0 + gamma[..., None] * lam).sum(axis=-1)
    return float(capacities) if capacities.ndim == 0 else capacities
