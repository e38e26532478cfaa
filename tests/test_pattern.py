import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import feasible_m_hat, neutral_pattern, random_paths
from oracles import modified_subchannels, singular_values
from prmimo import (
    ArrayGeometry,
    InvalidInputError,
    PathSet,
    PatternMatrix,
    assemble_pattern_channel,
    assemble_physical,
    capacity,
    correlation_indicator,
    steering_matrix,
    subchannel_gram,
)
from prmimo.channel import stack_paths
from prmimo.numerics import COLUMN_NORM_RTOL, HERMITIAN_TOL
from prmimo.sof import SubchannelGram


class TestPatternMatrix:
    def test_all_ones_is_feasible(self):
        pattern = neutral_pattern(4, 3)
        assert_allclose(pattern.m, np.ones((4, 3)))

    def test_product_is_computed(self):
        m_hat = np.full((4, 2), 1.0)
        p = np.array([2.0, 0.5])
        pattern = PatternMatrix(m_hat=m_hat, p=p)
        assert_allclose(pattern.m, m_hat * p)

    def test_rejects_negative_entries(self):
        # Column norm is already right, so nonnegativity is what fires.
        column = np.array([-1.0, 1.0, 1.0, 1.0]).reshape(4, 1)
        with pytest.raises(InvalidInputError):
            PatternMatrix(m_hat=column, p=np.ones(1))

    def test_rejects_bad_column_norm(self):
        with pytest.raises(InvalidInputError):
            PatternMatrix(m_hat=np.full((4, 1), 0.9), p=np.ones(1))

    def test_rejects_zero_column(self):
        m_hat = np.ones((4, 2))
        m_hat[:, 1] = 0.0
        with pytest.raises(InvalidInputError):
            PatternMatrix(m_hat=m_hat, p=np.ones(2))

    def test_unit_factors(self):
        m_hat = np.ones((4, 2))
        pattern = PatternMatrix(m_hat=m_hat, p=np.ones(2))
        assert np.array_equal(pattern.m, m_hat)

    def test_scalar_factor(self):
        m_hat = np.ones((4, 2))
        pattern = PatternMatrix(m_hat=m_hat, p=np.full(2, 0.3))
        assert_allclose(pattern.m, 0.3 * m_hat, rtol=1e-12)

    def test_column_norm_tolerance_is_relative(self):
        # Half the relative tolerance passes and ten times it fails, at
        # small and large n_t alike.
        for n_t in (4, 128):
            column = np.full((n_t, 1), 1.0)
            ok = column * np.sqrt(1.0 + 0.5 * COLUMN_NORM_RTOL)
            PatternMatrix(m_hat=ok, p=np.ones(1))
            bad = column * np.sqrt(1.0 + 10.0 * COLUMN_NORM_RTOL)
            with pytest.raises(InvalidInputError):
                PatternMatrix(m_hat=bad, p=np.ones(1))

    def test_rejects_negative_power_factor(self):
        with pytest.raises(InvalidInputError):
            PatternMatrix(m_hat=np.ones((4, 1)), p=np.array([-1.0]))


class TestCapacity:
    def test_zero_channel(self):
        assert capacity(np.zeros((4, 8)), 10.0) == 0.0

    def test_identity_channel_closed_form(self):
        n_r, n_t, rho = 8, 32, 10.0
        h = np.sqrt(n_t) * np.eye(n_r, n_t)
        assert_allclose(capacity(h, rho), n_r * np.log2(1.0 + rho * n_t / n_r), rtol=1e-12)

    def test_matches_singular_value_form(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            h = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
            rho = rng.uniform(0.1, 50.0)
            via_gram = capacity(h, rho)
            sv = singular_values(h)
            via_svd = np.sum(np.log2(1.0 + (rho / 4) * sv**2))
            assert abs(via_gram - via_svd) <= 1e-9 * max(1.0, via_svd)

    def test_increasing_in_snr(self):
        rng = np.random.default_rng(52)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert capacity(h, 1.0) < capacity(h, 2.0) < capacity(h, 4.0)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(InvalidInputError):
            capacity(np.ones((2, 2)), 0.0)

    def test_snr_array_matches_scalar_calls(self):
        rng = np.random.default_rng(54)
        h = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        snr = 10.0 ** (np.arange(-10.0, 31.0) / 10.0)
        assert np.array_equal(capacity(h, snr), [capacity(h, s) for s in snr])

    def test_scalar_snr_returns_float(self):
        h = np.eye(2, 4)
        assert type(capacity(h, 10.0)) is float
        assert type(capacity(h, np.float64(10.0))) is float

    def test_rejects_nonpositive_entry_in_snr_array(self):
        with pytest.raises(InvalidInputError):
            capacity(np.ones((2, 2)), np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("snr", [np.nan, np.inf, np.array([1.0, np.nan])])
    def test_rejects_non_finite_snr(self, snr):
        # Rejected before the eigensolve: no nan result and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="finite"):
                capacity(np.ones((2, 2)), snr)

    def test_channel_stack_matches_single_calls(self):
        rng = np.random.default_rng(55)
        h = rng.standard_normal((6, 8, 32)) + 1j * rng.standard_normal((6, 8, 32))
        snr = 10.0 ** (np.arange(-10.0, 31.0, 5.0) / 10.0)
        stacked = capacity(h, snr)
        assert stacked.shape == (6, snr.size)
        for i in range(6):
            assert np.array_equal(stacked[i], capacity(h[i], snr))

    def test_rejects_vector_channel(self):
        with pytest.raises(InvalidInputError):
            capacity(np.ones(4), 1.0)


class TestAssemblePatternChannel:
    def test_all_ones_reproduces_physical(self):
        rng = np.random.default_rng(53)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 5)
        pattern = neutral_pattern(geom.n_t, len(paths))
        assert np.array_equal(
            assemble_pattern_channel(geom, paths, pattern), assemble_physical(geom, paths)
        )

    def test_single_active_antenna(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0 + 0.5j], aod=[0.4], aoa=[-0.3])
        m_hat = np.zeros((4, 1))
        m_hat[0, 0] = np.sqrt(4.0)
        pattern = PatternMatrix(m_hat=m_hat, p=np.ones(1))
        h = assemble_pattern_channel(geom, paths, pattern)
        a_r = steering_matrix(geom.n_r, geom.spacing_r, paths.aoa)
        a_t = steering_matrix(geom.n_t, geom.spacing_t, paths.aod)
        expected = paths.gains[0] * np.outer(a_r[:, 0], (a_t[:, 0] * m_hat[:, 0]).conj())
        assert_allclose(h, expected, atol=1e-14)
        # Only the first transmit antenna radiates toward this path.
        assert_allclose(h[:, 1:], 0.0, atol=1e-14)

    def test_matrix_form_matches_subchannel_sum(self):
        rng = np.random.default_rng(54)
        geom = ArrayGeometry(n_t=6, n_r=3)
        paths = random_paths(rng, 7)
        m_hat = feasible_m_hat(rng, geom.n_t, 7)
        p = rng.uniform(0.2, 2.0, 7)
        pattern = PatternMatrix(m_hat=m_hat, p=p)
        h = assemble_pattern_channel(geom, paths, pattern)
        a_r = steering_matrix(geom.n_r, geom.spacing_r, paths.aoa)
        a_t = steering_matrix(geom.n_t, geom.spacing_t, paths.aod)
        expected = np.zeros((3, 6), dtype=complex)
        for i in range(7):
            expected += paths.gains[i] * p[i] * np.outer(a_r[:, i], (a_t[:, i] * m_hat[:, i]).conj())
        assert_allclose(h, expected, atol=1e-12)

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(55)
        geom = ArrayGeometry(n_t=6, n_r=3)
        paths = random_paths(rng, 7)
        with pytest.raises(InvalidInputError):
            assemble_pattern_channel(geom, paths, neutral_pattern(6, 4))


class TestSubchannelGram:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(56)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        gram = subchannel_gram(geom, paths, feasible_m_hat(rng, 8, 6))
        assert_allclose(np.diag(gram.g), np.ones(6), atol=1e-10)

    def test_orthogonal_receive_angles_cancel(self):
        # Two elements at half-wavelength spacing null out when the sines
        # of the arrival angles differ by exactly one.
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.2, -0.4], aoa=[0.0, np.pi / 2])
        rng = np.random.default_rng(57)
        gram = subchannel_gram(geom, paths, feasible_m_hat(rng, 4, 2))
        assert abs(gram.g[0, 1]) <= 1e-12

    def test_identical_paths_fully_correlated(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 2.0], aod=[0.3, 0.3], aoa=[-0.2, -0.2])
        gram = subchannel_gram(geom, paths, np.ones((4, 2)))
        assert_allclose(gram.g[0, 1], 1.0, atol=1e-12)

    def test_matches_direct_trace(self):
        rng = np.random.default_rng(58)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        m_hat = feasible_m_hat(rng, 8, 6)
        gram = subchannel_gram(geom, paths, m_hat)
        subs = modified_subchannels(geom, paths, m_hat)
        direct = np.einsum("irt,jrt->ij", subs.conj(), subs)
        assert np.max(np.abs(gram.g - direct)) <= 1e-12

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(59)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 10)
        gram = subchannel_gram(geom, paths, feasible_m_hat(rng, 8, 10))
        assert np.max(np.abs(gram.g)) <= 1.0 + 1e-12

    def test_rejects_unnormalized_columns(self):
        rng = np.random.default_rng(60)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 3)
        with pytest.raises(InvalidInputError):
            subchannel_gram(geom, paths, np.full((8, 3), 0.5))

    def test_stack_matches_one_set_calls_bit_for_bit(self):
        rng = np.random.default_rng(65)
        geom = ArrayGeometry(n_t=8, n_r=4)
        sets = [random_paths(rng, 6) for _ in range(3)]
        m_hat = np.stack([feasible_m_hat(rng, 8, 6) for _ in sets])
        stacked = subchannel_gram(geom, stack_paths(sets), m_hat)
        assert stacked.g.shape == (3, 6, 6) and stacked.indicator.shape == (3, 6)
        indicator = correlation_indicator(stacked.g)
        for row, paths in enumerate(sets):
            single = subchannel_gram(geom, paths, m_hat[row])
            assert np.array_equal(stacked.g[row], single.g)
            assert np.array_equal(stacked.indicator[row], single.indicator)
            assert np.array_equal(indicator[row], correlation_indicator(single.g))

    def test_rejects_unstacked_columns_for_a_stack(self):
        rng = np.random.default_rng(66)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = stack_paths([random_paths(rng, 3), random_paths(rng, 3)])
        with pytest.raises(InvalidInputError, match="m_hat shape"):
            subchannel_gram(geom, paths, np.ones((8, 3)))


def hermitian_stack(rng, count, n):
    # Hermitian matrices with a unit diagonal, as a stacked Gram holds.
    raw = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    g[:, np.arange(n), np.arange(n)] = 1.0
    return g


class TestStackedGramCheck:
    def test_hermitian_stack_passes(self):
        g = hermitian_stack(np.random.default_rng(62), 4, 5)
        gram = SubchannelGram(g=g, indicator=np.zeros((4, 5)))
        assert np.array_equal(gram.g, g)

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_one_non_hermitian_matrix_is_rejected(self, bad):
        g = hermitian_stack(np.random.default_rng(63), 4, 5)
        g[bad, 1, 3] += 2 * HERMITIAN_TOL
        with pytest.raises(InvalidInputError, match="not Hermitian within tolerance"):
            SubchannelGram(g=g, indicator=np.zeros((4, 5)))

    def test_asymmetry_within_tolerance_passes(self):
        g = hermitian_stack(np.random.default_rng(64), 4, 5)
        g[2, 1, 3] += 0.5 * HERMITIAN_TOL
        SubchannelGram(g=g, indicator=np.zeros((4, 5)))


class TestCorrelationIndicator:
    def test_identity_gram(self):
        assert_allclose(correlation_indicator(np.eye(4)), np.zeros(4))

    def test_two_by_two(self):
        c = 0.3
        g = np.array([[1.0, c], [c, 1.0]], dtype=complex)
        assert_allclose(correlation_indicator(g), [c**2, c**2])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = 0.5 * (raw + raw.conj().T)
        indicator = correlation_indicator(g)
        for l in range(6):
            expected = sum(abs(g[l, j]) ** 2 for j in range(6) if j != l)
            assert_allclose(indicator[l], expected, rtol=1e-12)
