"""Dense linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around ``numpy.linalg`` so the rest of
the package can rely on a fixed eigenvalue ordering, explicit handling
of nearly-PSD Gram matrices, and uniform error reporting.
"""

from contextlib import contextmanager
from functools import cache
from pathlib import Path

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

# Absolute tolerance on power proportions summing to 1. Normalizing a
# weight vector leaves a few ulps of round-off; the proportions of any
# path count used here stay far below this bound.
PROPORTION_SUM_TOL = 1e-12

# Absolute tolerance on the Hermitian symmetry of a Gram matrix.
HERMITIAN_TOL = 1e-12


def symmetrize(b):
    """Return ``(B + B^T) / 2`` for each matrix of a (..., n, n) stack.

    A no-op (bitwise) for symmetric input.
    """
    b = np.asarray(b, dtype=float)
    sym = b + b.swapaxes(-1, -2)
    sym *= 0.5
    return sym


def _require_square(a, name):
    # A single matrix or a stack of them over leading axes.
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def require_integer(value, name):
    """Return ``value`` as an ``int``; raise ``InvalidInputError`` unless integral.

    Python and numpy integers pass; a ``bool``, a float or any other type
    is rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_unit_power_columns(m_hat):
    """Check a modification matrix: nonnegative columns of squared norm n_t.

    ``n_t`` is the row count (of each matrix of a stack). Non-finite
    entries fail the norm check.
    """
    if np.any(m_hat < 0):
        raise InvalidInputError("m_hat entries must be nonnegative")
    n_t = m_hat.shape[-2]
    deviation = np.abs(np.sum(m_hat**2, axis=-2) - n_t)
    if not np.all(deviation <= COLUMN_NORM_RTOL * n_t):
        raise InvalidInputError(
            f"every m_hat column needs squared norm {n_t}, "
            f"worst deviation {float(np.max(deviation)):.3g}"
        )


@cache
def _openblas():
    # numpy's bundled OpenBLAS with the calls used here declared, or None.
    # Looked up on first use, so that importing the package neither loads
    # ctypes nor scans for the library.
    import ctypes

    for path in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))
        if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
            continue
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        if hasattr(lib, "blas_thread_shutdown_"):
            lib.blas_thread_shutdown_.argtypes = []
            lib.blas_thread_shutdown_.restype = ctypes.c_int
        return lib
    return None


def set_blas_threads(count):
    """Set numpy's bundled OpenBLAS to ``count`` threads; return the old count.

    Setting a count starts the library's thread pool at once, whose idle
    threads slowed the small calls of a trial by about 20% and, when just
    started, spin for about 0.1 s of CPU. So each call stops the pool
    again (``blas_thread_shutdown_``, the library's own fork handler,
    where it is exported), also when it leaves an unchanged count alone;
    a later call that needs more threads restarts it. Call it while no
    other thread runs BLAS work. A no-op returning ``None`` without the
    library.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    if count != previous:
        lib.scipy_openblas_set_num_threads64_(count)
    if hasattr(lib, "blas_thread_shutdown_"):
        lib.blas_thread_shutdown_()
    return previous


@contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Where the count is already one, or the library is absent, this only
    reads the count and sets nothing, so a nested use (each batch of a
    campaign, each batch in a pool worker) costs one read.
    """
    lib = _openblas()
    previous = None if lib is None else lib.scipy_openblas_get_num_threads64_()
    if previous in (None, 1):
        yield
        return
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(previous)


def eig_sym(b):
    """Eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    b : (..., n, n) array_like
        Real symmetric matrix, or a stack of them. The input is
        symmetrized by averaging first, so accumulation round-off from
        the caller is tolerated.

    Returns
    -------
    (eigenvalues, eigenvectors)
        numpy's ``eigh`` result: ascending eigenvalues and the matching
        orthonormal eigenvectors as columns. Within a degenerate
        eigenvalue the basis is whatever LAPACK produced. A stacked call
        runs LAPACK once per matrix, so each result is bit-identical to
        the call on that matrix alone.

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

    ``g`` is one (n, n) matrix or a (..., n, n) stack, and ``gamma`` a
    scalar or an array of positive finite values; the result has shape
    ``g.shape[:-2] + gamma.shape``, and a single matrix with a scalar
    ``gamma`` gives a ``float``. The eigenvalues do not depend on
    ``gamma``, so there is one stacked ``eigvalsh`` for the whole call,
    and every entry equals the call on its own matrix and ``gamma``
    entry bit for bit.
    """
    g = np.asarray(g, dtype=complex)
    _require_square(g, "gram matrix")
    _require_finite(g, "gram matrix")
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise InvalidInputError(f"gamma must be positive and finite, got {gamma}")
    try:
        lam = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(g))
        raise NumericalFailureError(
            f"Hermitian eigenvalue iteration did not converge (norm {norm:.6g})",
            matrix_norm=norm,
        ) from exc
    n = lam.shape[-1]
    if n:
        # Only a negative eigenvalue can fall below a matrix's floor, and
        # each floor is that matrix's own Frobenius norm.
        lowest = lam.reshape(-1, n)[:, 0]
        for index in np.flatnonzero(lowest < 0.0):
            floor = -PSD_CLAMP_REL * float(np.linalg.norm(g.reshape(-1, n, n)[index]))
            if lowest[index] < floor:
                raise InvalidInputError(
                    f"gram matrix has eigenvalue {lowest[index]:.6g}, "
                    f"below the PSD tolerance {floor:.6g}"
                )
    lam = np.maximum(lam, 0.0).reshape(lam.shape[:-1] + (1,) * gamma.ndim + (n,))
    capacities = np.log2(1.0 + gamma[..., None] * lam).sum(axis=-1)
    return float(capacities) if capacities.ndim == 0 else capacities
