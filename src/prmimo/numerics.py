"""Dense linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around ``numpy.linalg`` so the rest of
the package can rely on a fixed eigenvalue ordering, explicit handling
of nearly-PSD Gram matrices, and uniform error reporting.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Relative level (against the Frobenius norm) below which a negative Gram
# eigenvalue is treated as round-off and clamped to zero; anything more
# negative is rejected as a genuinely non-PSD input.
PSD_CLAMP_REL = 1e-8


class EigenPair(NamedTuple):
    """Eigendecomposition of a real symmetric matrix, eigenvalues ascending.

    ``vectors[:, k]`` is the unit eigenvector paired with ``values[k]``.
    Within a degenerate eigenvalue subspace the basis is whatever the
    backing decomposition produced; callers must not depend on the
    identity of individual columns there.
    """

    values: np.ndarray
    vectors: np.ndarray


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


def eig_sym(b):
    """Eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    b : (n, n) array_like
        Real symmetric matrix. The input is symmetrized by averaging
        first, so accumulation round-off from the caller is tolerated.

    Returns
    -------
    EigenPair
        Ascending eigenvalues and the matching orthonormal eigenvectors.

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
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(sym))
        raise NumericalFailureError(
            f"symmetric eigendecomposition did not converge (norm {norm:.6g})",
            matrix_norm=norm,
        ) from exc
    return EigenPair(values=values, vectors=vectors)


def singular_values(a):
    """Singular values of a complex matrix, descending.

    The values satisfy ``sum(s**2) == ||A||_F**2`` up to round-off, which
    the test suite uses as an independent check.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(a))
        raise NumericalFailureError(
            f"singular value decomposition did not converge (norm {norm:.6g})",
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
