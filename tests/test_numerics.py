import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

import prmimo.numerics as numerics
from oracles import singular_values
from prmimo import (
    InvalidInputError,
    eig_sym,
    logdet_capacity_kernel,
)
from prmimo.numerics import one_blas_thread, set_blas_threads, symmetrize


class TestEigSym:
    def test_diagonal_case(self):
        values, vectors = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(values, [1.0, 2.0, 3.0])
        # Columns are signed unit vectors of the standard basis.
        assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_zero_matrix(self):
        values, vectors = eig_sym(np.zeros((4, 4)))
        assert_allclose(values, np.zeros(4))
        assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-10)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((8, 8))
        b = symmetrize(raw + raw.T)
        values, vectors = eig_sym(b)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        scale = max(1.0, np.linalg.norm(b))
        assert np.linalg.norm(rebuilt - b) <= 1e-10 * scale

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            raw = rng.standard_normal((6, 6))
            b = 0.5 * (raw + raw.T)
            values, vectors = eig_sym(b)
            scale = max(1.0, np.linalg.norm(b))
            for k in range(6):
                residual = np.linalg.norm(b @ vectors[:, k] - values[k] * vectors[:, k])
                assert residual <= 1e-9 * scale

    def test_values_ascending(self):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((10, 10))
        values, _ = eig_sym(raw + raw.T)
        assert np.all(np.diff(values) >= 0)

    def test_symmetrization_invariance(self):
        rng = np.random.default_rng(14)
        raw = rng.standard_normal((5, 5))
        assert np.array_equal(eig_sym(raw)[0], eig_sym(symmetrize(raw))[0])

    def test_rejects_non_finite(self):
        bad = np.eye(3)
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            eig_sym(bad)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            eig_sym(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            eig_sym(np.ones((4, 2, 3)))

    def test_stack_matches_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(37)
        raw = rng.standard_normal((5, 16, 16))
        values, vectors = eig_sym(raw)
        assert values.shape == (5, 16) and vectors.shape == (5, 16, 16)
        for i in range(5):
            single_values, single_vectors = eig_sym(raw[i])
            assert np.array_equal(values[i], single_values)
            assert np.array_equal(vectors[i], single_vectors)

    def test_symmetrize_stack(self):
        raw = np.random.default_rng(38).standard_normal((3, 4, 4))
        assert np.array_equal(symmetrize(raw), [symmetrize(b) for b in raw])


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


class TestLogdetCapacityKernel:
    def test_identity_channel_closed_form(self):
        n_r, n_t, rho = 8, 32, 10.0
        value = logdet_capacity_kernel(n_t * np.eye(n_r), rho / n_r)
        assert_allclose(value, n_r * np.log2(1.0 + rho * n_t / n_r), rtol=1e-12)

    def test_zero_gram(self):
        assert logdet_capacity_kernel(np.zeros((3, 3)), 2.0) == 0.0

    def test_diagonal_arithmetic(self):
        assert_allclose(logdet_capacity_kernel(np.diag([4.0, 1.0]), 1.0), np.log2(10.0), rtol=1e-12)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            g = a @ a.conj().T
            gamma = rng.uniform(0.05, 5.0)
            expected = np.sum(np.log2(1.0 + gamma * np.clip(np.linalg.eigvalsh(g), 0.0, None)))
            value = logdet_capacity_kernel(g, gamma)
            assert abs(value - expected) <= 1e-9 * max(1.0, expected)

    def test_matches_singular_value_form(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
            gamma = rng.uniform(0.1, 3.0)
            via_gram = logdet_capacity_kernel(a @ a.conj().T, gamma)
            via_svd = np.sum(np.log2(1.0 + gamma * singular_values(a) ** 2))
            assert abs(via_gram - via_svd) <= 1e-9 * max(1.0, via_svd)

    def test_clamps_round_off_negatives(self):
        g = np.diag([1.0, -1e-12])
        assert_allclose(logdet_capacity_kernel(g, 1.0), 1.0, rtol=1e-9)

    def test_rejects_indefinite_gram(self):
        with pytest.raises(InvalidInputError):
            logdet_capacity_kernel(np.diag([1.0, -1.0]), 1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            logdet_capacity_kernel(np.eye(2), 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, np.array([1.0, np.inf])])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(InvalidInputError, match="finite"):
            logdet_capacity_kernel(np.eye(2), gamma)

    def test_stack_shapes_and_bits(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        g = a @ a.conj().swapaxes(-1, -2)
        gamma = np.array([0.1, 1.0, 10.0])
        stacked = logdet_capacity_kernel(g, gamma)
        assert stacked.shape == (4, 3)
        assert logdet_capacity_kernel(g, 1.0).shape == (4,)
        for i in range(4):
            assert np.array_equal(stacked[i], logdet_capacity_kernel(g[i], gamma))
            assert stacked[i, 1] == logdet_capacity_kernel(g[i], 1.0)

    def test_stack_checks_each_matrix_against_its_own_floor(self):
        # The clamped round-off of one matrix is no excuse for another.
        psd = np.diag([1.0, -1e-12])
        indefinite = np.diag([1.0, -1e-3])
        assert_allclose(logdet_capacity_kernel(np.stack([psd, psd]), 1.0), [1.0, 1.0], rtol=1e-9)
        with pytest.raises(InvalidInputError, match="below the PSD tolerance"):
            logdet_capacity_kernel(np.stack([psd, indefinite]), 1.0)

    def test_nonnegative_result(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert logdet_capacity_kernel(a @ a.conj().T, 0.01) >= 0.0


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
            without_pool = len(os.listdir("/proc/self/task"))
            a = np.ones((600, 600))
            a @ a
            assert len(os.listdir("/proc/self/task")) > without_pool
            with one_blas_thread():
                assert len(os.listdir("/proc/self/task")) == without_pool
            assert len(os.listdir("/proc/self/task")) == without_pool
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
