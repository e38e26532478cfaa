"""Tolerances, input rules and BLAS thread control shared by the package."""

from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

# Relative tolerance on the unit-power invariant of modification columns:
# a column's squared norm must lie within COLUMN_NORM_RTOL * n_t of n_t
# (equivalently, a subchannel Gram diagonal within COLUMN_NORM_RTOL of 1).
# The design's own round-off stays below 1e-15.
COLUMN_NORM_RTOL = 1e-13

# Absolute tolerance on the Hermitian symmetry of a Gram matrix.
HERMITIAN_TOL = 1e-12


def require_integer(value, name):
    """Return ``value`` as an ``int``; raise ``InvalidInputError`` unless integral.

    Python and numpy integers pass; a ``bool``, a float or any other type
    is rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(value, name):
    """A Python or numpy integer or float (not a ``bool``) as a finite ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a Python integer past the float range
        value = np.inf
    if not np.isfinite(value):
        raise InvalidInputError(f"{name} must be finite")
    return value


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

