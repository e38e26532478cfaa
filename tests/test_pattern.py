import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    feasible_m_hat,
    gram_state,
    neutral_pattern,
    physical_channel,
    random_paths,
    stack_paths,
    traced_state,
)
from oracles import modified_subchannels, singular_values, steering_matrix
from prmimo import (
    ArrayGeometry,
    InvalidInputError,
    PathSet,
    PatternMatrix,
    SofState,
    assemble_pattern_channel,
    capacity,
)
from prmimo.numerics import COLUMN_NORM_RTOL, HERMITIAN_TOL
import prmimo.sof as sof


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

    def test_accepts_a_stack_over_two_leading_axes(self):
        rng = np.random.default_rng(57)
        m_hat = np.stack([[feasible_m_hat(rng, 4, 3) for _ in range(5)] for _ in range(2)])
        p = rng.uniform(0.2, 2.0, (2, 5, 3))
        pattern = PatternMatrix(m_hat=m_hat, p=p)
        assert pattern.m.shape == (2, 5, 4, 3)
        assert np.array_equal(pattern.m[1, 3], PatternMatrix(m_hat=m_hat[1, 3], p=p[1, 3]).m)

    def test_rejects_a_vector(self):
        with pytest.raises(InvalidInputError, match="matrix or a stack"):
            PatternMatrix(m_hat=np.ones(4), p=np.ones(1))

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

    # A NaN factor passed the nonnegative check, and an infinite one too;
    # either gave an all-NaN channel with numpy warnings.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_power_factors(self, bad):
        with pytest.raises(InvalidInputError, match="power factors must be finite"):
            PatternMatrix(m_hat=np.ones((2, 2)), p=[bad, 1.0])

    def test_rejects_factors_that_do_not_match_the_columns(self):
        message = r"p must have one entry per column, got \(3,\) for \(2,\) columns"
        with pytest.raises(InvalidInputError, match=message):
            PatternMatrix(m_hat=np.ones((4, 2)), p=[1, 1, 1])


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

    @pytest.mark.parametrize(
        "snr", [10.0 ** (np.arange(-10.0, 31.0, 5.0) / 10.0), 3.0], ids=["grid", "scalar"]
    )
    def test_channel_stack_matches_single_calls(self, snr):
        rng = np.random.default_rng(55)
        h = rng.standard_normal((6, 8, 32)) + 1j * rng.standard_normal((6, 8, 32))
        stacked = capacity(h, snr)
        assert stacked.shape == (6,) + np.shape(snr)
        for i in range(6):
            assert np.array_equal(stacked[i], capacity(h[i], snr))

    def test_rejects_vector_channel(self):
        with pytest.raises(InvalidInputError):
            capacity(np.ones(4), 1.0)

    def test_diagonal_arithmetic(self):
        # Gram diag(4, 1) at snr/n_r = 1: log2(5 * 2).
        h = np.diag(np.sqrt([4.0, 1.0]))
        assert_allclose(capacity(h, 2.0), np.log2(10.0), rtol=1e-12)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            rho = rng.uniform(0.2, 20.0)
            lam = np.clip(np.linalg.eigvalsh(h @ h.conj().T), 0.0, None)
            expected = np.sum(np.log2(1.0 + (rho / 4) * lam))
            assert abs(capacity(h, rho) - expected) <= 1e-9 * max(1.0, expected)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_channel_gives_its_rank_closed_form(self, rank):
        # r orthogonal rows of squared norm n_t, each repeated n_r/r times:
        # the Gram has r eigenvalues n_t * n_r / r, and its n_r - r zero
        # ones come out of the eigensolver as round-off negatives here,
        # which the clamp takes to zero.
        n_r, n_t = 8, 24
        rows = np.kron(np.eye(rank), np.full(n_t // rank, np.sqrt(rank)))
        h = np.repeat(rows, n_r // rank, axis=0) * np.exp(0.3j)
        lam = np.linalg.eigvalsh(h @ h.conj().T)
        assert lam[0] < 0.0
        for snr in (1e-3, 10.0, 1e4):
            value = capacity(h, snr)
            assert value >= 0.0
            assert_allclose(value, rank * np.log2(1.0 + snr * n_t / rank), rtol=1e-10)
            assert value == np.sum(np.log2(1.0 + (snr / n_r) * np.maximum(lam, 0.0)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e160])
    def test_rejects_non_finite_gram(self, bad):
        # A finite channel near 1e160 overflows H H^H.
        h = np.ones((2, 3), dtype=complex)
        h[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="gram matrix contains non-finite entries"):
                capacity(h, 1.0)

    def test_rejects_channel_without_receive_antennas(self):
        with pytest.raises(InvalidInputError, match="channel matrix"):
            capacity(np.ones((0, 4)), 1.0)


class TestAssemblePatternChannel:
    def test_all_ones_reproduces_physical(self):
        rng = np.random.default_rng(53)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 5)
        pattern = neutral_pattern(geom.n_t, len(paths))
        assert np.array_equal(
            assemble_pattern_channel(geom, paths, pattern), physical_channel(geom, paths)
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

    def test_rejects_a_pattern_that_is_not_a_pattern_matrix(self):
        paths = random_paths(np.random.default_rng(55), 3)
        with pytest.raises(InvalidInputError, match="pattern must be a PatternMatrix"):
            assemble_pattern_channel(ArrayGeometry(n_t=4, n_r=2), paths, "x")

    def test_pattern_stack_broadcasts_against_path_stack(self):
        # A (2, 1) pattern stack over 3 path sets: 2 x 3 channels, each the
        # bytes of its own assembly.
        rng = np.random.default_rng(58)
        geom = ArrayGeometry(n_t=6, n_r=3)
        sets = [random_paths(rng, 5) for _ in range(3)]
        m_hat = np.stack([feasible_m_hat(rng, 6, 5) for _ in range(2)])[:, None]
        p = rng.uniform(0.2, 2.0, (2, 1, 5))
        h = assemble_pattern_channel(geom, stack_paths(sets), PatternMatrix(m_hat=m_hat, p=p))
        assert h.shape == (2, 3, 3, 6)
        for i in range(2):
            pattern = PatternMatrix(m_hat=m_hat[i, 0], p=p[i, 0])
            for t, paths in enumerate(sets):
                assert np.array_equal(h[i, t], assemble_pattern_channel(geom, paths, pattern))

    @pytest.mark.parametrize("pattern_stack, path_stack", [((2,), 3), ((4, 2), 3), ((2, 3), 2)])
    def test_rejects_stacks_that_do_not_broadcast(self, pattern_stack, path_stack):
        rng = np.random.default_rng(59)
        geom = ArrayGeometry(n_t=6, n_r=3)
        paths = stack_paths([random_paths(rng, 5) for _ in range(path_stack)])
        ones = np.ones(pattern_stack + (6, 5))
        pattern = PatternMatrix(m_hat=ones, p=ones[..., 0, :])
        with pytest.raises(InvalidInputError, match="does not fit"):
            assemble_pattern_channel(geom, paths, pattern)


class TestSubchannelGram:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(56)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        traced = traced_state(geom, paths, feasible_m_hat(rng, 8, 6))
        assert_allclose(np.diag(traced.gram), np.ones(6), atol=1e-10)

    def test_orthogonal_receive_angles_cancel(self):
        # Two elements at half-wavelength spacing null out when the sines
        # of the arrival angles differ by exactly one.
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.2, -0.4], aoa=[0.0, np.pi / 2])
        rng = np.random.default_rng(57)
        traced = traced_state(geom, paths, feasible_m_hat(rng, 4, 2))
        assert abs(traced.gram[0, 1]) <= 1e-12

    def test_identical_paths_fully_correlated(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 2.0], aod=[0.3, 0.3], aoa=[-0.2, -0.2])
        traced = traced_state(geom, paths, np.ones((4, 2)))
        assert_allclose(traced.gram[0, 1], 1.0, atol=1e-12)

    def test_matches_direct_trace(self):
        # The library's factored Gram, at the neutral columns it starts from.
        rng = np.random.default_rng(58)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        g = sof._initial_state(geom, paths)[2]
        subs = modified_subchannels(geom, paths, np.ones((8, 6)))
        direct = np.einsum("irt,jrt->ij", subs.conj(), subs)
        assert np.max(np.abs(g - direct)) <= 1e-12

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(59)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 10)
        traced = traced_state(geom, paths, feasible_m_hat(rng, 8, 10))
        assert np.max(np.abs(traced.gram)) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "g, message",
        [
            (np.ones((2, 3)), r"gram shape \(2, 3\) does not fit m_hat: need \(2, 2\)"),
            (np.ones(2), r"gram shape \(2,\) does not fit m_hat: need \(2, 2\)"),
            (2.0 * np.eye(2), "gram diagonal must be 1 for normalized subchannels"),
        ],
        ids=["two-by-three", "vector", "diagonal-two"],
    )
    def test_rejects_a_matrix_that_is_no_gram_of_unit_subchannels(self, g, message):
        with pytest.raises(InvalidInputError, match=message):
            SofState([0, 1], np.ones((1, 2)), g)

    def test_stack_matches_one_set_calls_bit_for_bit(self):
        # The library's factored Gram, at the neutral columns it starts from.
        rng = np.random.default_rng(65)
        geom = ArrayGeometry(n_t=8, n_r=4)
        sets = [random_paths(rng, 6) for _ in range(3)]
        stacked = gram_state(sof._initial_state(geom, stack_paths(sets))[2])
        assert stacked.gram.shape == (3, 6, 6) and stacked.indicator.shape == (3, 6)
        for row, paths in enumerate(sets):
            single = gram_state(sof._initial_state(geom, paths)[2])
            assert np.array_equal(stacked.gram[row], single.gram)
            assert np.array_equal(stacked.indicator[row], single.indicator)


def hermitian_stack(rng, count, n):
    # Hermitian matrices with a unit diagonal, as a stacked Gram holds.
    raw = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    g[:, np.arange(n), np.arange(n)] = 1.0
    return g


class TestStackedGramCheck:
    def test_hermitian_stack_passes(self):
        g = hermitian_stack(np.random.default_rng(62), 4, 5)
        assert np.array_equal(gram_state(g).gram, g)

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_one_non_hermitian_matrix_is_rejected(self, bad):
        g = hermitian_stack(np.random.default_rng(63), 4, 5)
        g[bad, 1, 3] += 2 * HERMITIAN_TOL
        with pytest.raises(InvalidInputError, match="not Hermitian within tolerance"):
            gram_state(g)

    def test_asymmetry_within_tolerance_passes(self):
        g = hermitian_stack(np.random.default_rng(64), 4, 5)
        g[2, 1, 3] += 0.5 * HERMITIAN_TOL
        gram_state(g)

    # An off-diagonal NaN compares False with the tolerance, and an inf
    # pair makes inf - inf = NaN in the Hermitian check.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)],
                             ids=["nan", "inf", "imag-inf"])
    def test_non_finite_entry_is_rejected(self, bad):
        g = hermitian_stack(np.random.default_rng(67), 4, 5)
        g[2, 1, 3] = bad
        g[2, 3, 1] = np.conj(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="gram matrix contains non-finite entries"):
                gram_state(g)

    def test_the_indicator_is_derived_not_stored(self):
        g = hermitian_stack(np.random.default_rng(68), 2, 3)
        assert [f.name for f in dataclasses.fields(SofState)] == ["order", "m_hat", "gram"]
        with pytest.raises(AttributeError):
            gram_state(g).indicator = np.zeros((2, 3))


class TestCorrelationIndicator:
    def test_identity_gram(self):
        assert_allclose(gram_state(np.eye(4)).indicator, np.zeros(4))

    def test_two_by_two(self):
        c = 0.3
        g = np.array([[1.0, c], [c, 1.0]], dtype=complex)
        assert_allclose(gram_state(g).indicator, [c**2, c**2])

    def test_matches_brute_force(self):
        g = hermitian_stack(np.random.default_rng(61), 2, 6)
        indicator = gram_state(g).indicator
        assert indicator.shape == (2, 6)
        for t in range(2):
            for l in range(6):
                expected = sum(abs(g[t, l, j]) ** 2 for j in range(6) if j != l)
                assert_allclose(indicator[t, l], expected, rtol=1e-12)
