import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import prmimo.numerics as numerics
from oracles import singular_values
from prmimo import InvalidInputError
from prmimo.numerics import one_blas_thread, set_blas_threads


class TestSingularValues:
    def test_scaled_identity_rows(self):
        a = np.sqrt(4.0) * np.eye(2, 4)
        assert_allclose(singular_values(a), [2.0, 2.0], atol=1e-12)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        s = singular_values(np.outer(a, b.conj()))
        assert_allclose(s[0], 1.0, atol=1e-12)
        assert_allclose(s[1:], 0.0, atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        s = singular_values(a)
        fro_sq = np.linalg.norm(a) ** 2
        assert abs(np.sum(s**2) - fro_sq) <= 1e-9 * fro_sq

    def test_descending_nonnegative(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        s = singular_values(a)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2), dtype=complex)
        bad[1, 1] = np.inf
        with pytest.raises(InvalidInputError):
            singular_values(bad)


def thread_count():
    return len(os.listdir("/proc/self/task"))


def thread_count_settles_at(expected, deadline=1.0):
    # A pool thread that the library has joined can stay listed for a
    # moment, so the count is polled until it reaches ``expected``.
    end = time.monotonic() + deadline
    while thread_count() != expected:
        if time.monotonic() > end:
            return False
        time.sleep(0.001)
    return True


class TestBlasThreads:
    def test_one_thread_inside_and_the_count_restored_after(self):
        lib = numerics._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not present")
        previous = set_blas_threads(2)
        try:
            with pytest.raises(RuntimeError):
                with one_blas_thread():
                    assert lib.scipy_openblas_get_num_threads64_() == 1
                    raise RuntimeError("leaves the block early")
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            set_blas_threads(previous)

    def test_setting_a_count_leaves_no_pool_threads(self):
        # Idle pool threads slow the small calls of a trial; a call that
        # needs more threads starts the pool again.
        lib = numerics._openblas()
        if lib is None or not hasattr(lib, "blas_thread_shutdown_"):
            pytest.skip("numpy's bundled OpenBLAS cannot stop its pool here")
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no per-thread listing of this process")
        previous = set_blas_threads(2)
        try:
            without_pool = thread_count()
            a = np.ones((600, 600))
            a @ a
            assert thread_count() > without_pool
            with one_blas_thread():
                assert thread_count_settles_at(without_pool)
            assert thread_count_settles_at(without_pool)
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            set_blas_threads(previous)

    def test_only_reads_the_count_when_it_is_one(self, monkeypatch):
        # A campaign's batches enter it already on one thread: inside the
        # campaign's own pin, or in a pool worker.
        lib = numerics._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not present")
        previous = set_blas_threads(1)
        try:

            def no_set(count):
                raise AssertionError("the count was set")

            monkeypatch.setattr(numerics, "set_blas_threads", no_set)
            with one_blas_thread():
                assert lib.scipy_openblas_get_num_threads64_() == 1
        finally:
            set_blas_threads(previous)

    def test_noop_when_the_library_is_absent(self, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        assert set_blas_threads(1) is None
        with one_blas_thread():
            pass
