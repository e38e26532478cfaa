import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    feasible_m_hat,
    gram_state,
    random_paths,
    rescaled_to_budget,
    stack_paths,
    traced_state,
)
from oracles import (
    kept_allocation_factors,
    kept_weights,
    modified_subchannels,
    tensor_power_scaling,
)
from prmimo import (
    ArrayGeometry,
    InvalidInputError,
    NumericalFailureError,
    PathSet,
    PatternMatrix,
    allocate_power,
    assemble_pattern_channel,
    design_pattern,
    run_sof,
)
from prmimo.cfpa import EPS_FLOOR


def proportions(w_hat):
    """The paper's power proportions: the weights normalized to sum to 1."""
    return w_hat / w_hat.sum(axis=-1, keepdims=True)


def allocated_weights(g, gains=None):
    """The weights ``allocate_power`` gives the paths of the Gram matrix ``g``.

    Its factors times ``|gain|`` are the weights times one scale; over
    the smallest nonzero one, the weight 1 of the most correlated path,
    they are the weights. The state's one-antenna columns fit ``n_t = 1``.
    """
    n_paths = np.shape(g)[-1]
    gains = np.ones(n_paths) if gains is None else np.asarray(gains)
    paths = PathSet(gains=gains, aod=np.zeros(n_paths), aoa=np.zeros(n_paths))
    scaled = allocate_power(ArrayGeometry(n_t=1, n_r=1), paths, gram_state(g)).p * np.abs(gains)
    return scaled / scaled[scaled > 0.0].min()


def random_gram(rng, n_paths, uncorrelated=0):
    """A Gram matrix of ``n_paths`` random unit vectors, the last
    ``uncorrelated`` of them orthogonal to all others."""
    n_rows = n_paths + 2
    x = rng.standard_normal((n_rows, n_paths)) + 1j * rng.standard_normal((n_rows, n_paths))
    x /= np.linalg.norm(x, axis=0)
    g = x.conj().T @ x
    g = 0.5 * (g + g.conj().T)
    g[np.arange(n_paths), np.arange(n_paths)] = 1.0
    if uncorrelated:
        g[-uncorrelated:, :] = g[:, -uncorrelated:] = 0.0
        g[range(-uncorrelated, 0), range(-uncorrelated, 0)] = 1.0
    return g


class TestWeights:
    # The weight rule, through ``allocate_power``: max(I) / I_l with the
    # denominator floored at EPS_FLOOR * max(I), all ones for I = 0.
    def test_inverse_proportions(self):
        # Indicator [0.4, 0.3, 0.1]: weights [1, 4/3, 4].
        a, b = np.sqrt(0.3), np.sqrt(0.1)
        g = np.array([[1.0, a, b], [a, 1.0, 0.0], [b, 0.0, 1.0]])
        assert_allclose(gram_state(g).indicator, [0.4, 0.3, 0.1], rtol=1e-12)
        w_hat = allocated_weights(g)
        assert_allclose(w_hat, [1.0, 4.0 / 3.0, 4.0], rtol=1e-12)
        assert_allclose(proportions(w_hat), [3 / 19, 4 / 19, 12 / 19], rtol=1e-12)

    def test_uniform_indicator(self):
        g = np.full((4, 4), 0.3) + 0.7 * np.eye(4)
        assert_allclose(proportions(allocated_weights(g)), np.full(4, 0.25), rtol=1e-12)

    def test_zero_entry_hits_floor(self):
        # Indicator [0.25, 0.25, 0]: the floor caps the third weight at 1e6.
        g = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        w_hat = allocated_weights(g)
        assert_allclose(w_hat, [1.0, 1.0, 1e6], rtol=1e-12)
        assert_allclose(proportions(w_hat)[2], 1e6 / (2.0 + 1e6), rtol=1e-12)

    def test_all_zero_degenerates_to_uniform(self):
        paths = PathSet(gains=np.ones(3), aod=np.zeros(3), aoa=np.zeros(3))
        pattern = allocate_power(ArrayGeometry(n_t=1, n_r=1), paths, gram_state(np.eye(3)))
        # Uniform factors at the budget n_t * n_r = 1 of three orthogonal subchannels.
        assert_allclose(pattern.p, np.full(3, np.sqrt(1.0 / 3.0)), rtol=1e-12)

    def test_weights_run_from_one_to_the_floor_ratio(self):
        # The most correlated subchannel gets weight 1, and the floor caps
        # the others at 1 / EPS_FLOOR, which an uncorrelated one reaches.
        rng = np.random.default_rng(81)
        for _ in range(20):
            n_paths = int(rng.integers(1, 40))
            g = random_gram(rng, n_paths, uncorrelated=int(rng.integers(0, min(n_paths, 3))))
            indicator = gram_state(g).indicator
            w_hat = allocated_weights(g)
            assert_allclose(w_hat, kept_weights(np.ones(n_paths), indicator), rtol=1e-12)
            assert abs(w_hat[np.argmax(indicator)] - 1.0) <= 1e-12
            assert w_hat.max() <= (1.0 + 1e-12) / EPS_FLOOR

    def test_more_correlated_gets_less_power(self):
        rng = np.random.default_rng(82)
        g = random_gram(rng, 30)
        w_hat = allocated_weights(g, gains=rng.uniform(0.5, 2.0, 30))
        order = np.argsort(gram_state(g).indicator)
        assert np.all(np.diff(w_hat[order]) <= 1e-12 * w_hat.max())

    def test_allocation_rejects_a_non_finite_indicator(self):
        # The state checks that the Gram matrix is finite; the squares of
        # its off-diagonal entries can still overflow to inf.
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 0.5], aod=[0.1, -0.4], aoa=[0.2, 0.0])
        state = gram_state(np.array([[1.0, 1e200], [1e200, 1.0]]), np.ones((4, 2)))
        with np.errstate(over="ignore"):
            assert np.isinf(state.indicator).all()
            with pytest.raises(InvalidInputError, match="indicator entries must be finite"):
                allocate_power(geom, paths, state)


class TestPaperClosedForm:
    # The oracle is the paper's allocation: scale factor delta for the
    # phase-free sum, then factors w * delta / |gain|.
    def test_single_unit_subchannel(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        paths = PathSet(gains=[1.0], aod=[0.3], aoa=[-0.1])
        traced = traced_state(geom, paths, np.ones((8, 1)))
        p = kept_allocation_factors(geom, paths.gains, traced.gram, traced.indicator)
        assert_allclose(p, [np.sqrt(16.0)], rtol=1e-12)

    def test_identical_subchannels_collapse(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.3, 0.3], aoa=[-0.1, -0.1])
        traced = traced_state(geom, paths, np.ones((8, 2)))
        p = kept_allocation_factors(geom, paths.gains, traced.gram, traced.indicator)
        assert_allclose(p, np.full(2, 0.5 * np.sqrt(16.0)), rtol=1e-12)

    def test_defining_trace_identity(self):
        rng = np.random.default_rng(83)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        m_hat = feasible_m_hat(rng, 8, 6)
        traced = traced_state(geom, paths, m_hat)
        subs = modified_subchannels(geom, paths, m_hat)
        indicator = rng.uniform(0.1, 2.0, 6)
        w = proportions(kept_weights(paths.gains, indicator))
        # p * |gain| is w * delta, and w sums to 1.
        p = kept_allocation_factors(geom, paths.gains, traced.gram, indicator)
        weighted = p * np.abs(paths.gains)
        combined = np.tensordot(weighted, subs, axes=(0, 0))
        budget = geom.n_t * geom.n_r
        assert abs(np.sum(np.abs(combined) ** 2) - budget) <= 1e-9 * budget
        assert_allclose(weighted / w, np.full(6, tensor_power_scaling(geom, subs, w)), rtol=1e-12)

    def test_identity_allocation(self):
        # Identical subchannels: the phase-free sum has unit power, so
        # delta = sqrt(n_t * n_r) = 2, and gains w * delta give factors 1.
        geom = ArrayGeometry(n_t=2, n_r=2)
        w = np.array([0.25, 0.75])
        gains = w * 2.0 * np.exp(1j * np.array([0.4, -1.0]))
        p = kept_allocation_factors(geom, gains, np.ones((2, 2), dtype=complex), [3.0, 1.0])
        assert_allclose(p, np.ones(2), rtol=1e-12)

    def test_single_path(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        p = kept_allocation_factors(geom, np.array([2.0]), np.ones((1, 1), dtype=complex), [0.7])
        assert_allclose(p, [np.sqrt(256.0) / 2.0], rtol=1e-12)

    def test_zero_gain_path_is_removed_first(self):
        geom = ArrayGeometry(n_t=2, n_r=2)
        g = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        p = kept_allocation_factors(geom, np.array([1.0, 0.0]), g, [0.2, 0.9])
        alone = kept_allocation_factors(geom, np.array([1.0]), g[:1, :1], [0.2])
        assert p[1] == 0.0
        assert_allclose(p[:1], alone, rtol=1e-12)

    def test_rescaled_to_the_budget_it_is_the_pattern(self):
        rng = np.random.default_rng(85)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 12)
        state = run_sof(geom, paths)
        pattern = allocate_power(geom, paths, state)
        closed = kept_allocation_factors(geom, paths.gains, state.gram, state.indicator)
        expected = rescaled_to_budget(geom, paths.gains, state.gram, closed)
        assert_allclose(pattern.p, expected, rtol=1e-13)


class TestAllocatePower:
    def test_renormalized_channel_meets_budget(self):
        rng = np.random.default_rng(84)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 12)
        state = run_sof(geom, paths)
        pattern = allocate_power(geom, paths, state)
        h = assemble_pattern_channel(geom, paths, pattern)
        budget = geom.n_t * geom.n_r
        assert abs(np.sum(np.abs(h) ** 2) - budget) <= 1e-9 * budget
        assert np.all(pattern.p > 0)

    def test_zero_gain_path_gets_zero_factor(self):
        rng = np.random.default_rng(86)
        geom = ArrayGeometry(n_t=8, n_r=2)
        base = random_paths(rng, 4)
        gains = base.gains.copy()
        gains[2] = 0.0
        paths = PathSet(gains=gains, aod=base.aod, aoa=base.aoa)
        m_hat = feasible_m_hat(rng, 8, 4)
        traced = traced_state(geom, paths, m_hat)
        pattern = allocate_power(geom, paths, traced)
        assert pattern.p.size == 4 and pattern.p[2] == 0.0
        assert np.all(np.delete(pattern.p, 2) > 0)
        closed = kept_allocation_factors(geom, gains, traced.gram, traced.indicator)
        assert closed[2] == 0.0
        assert_allclose(pattern.p, rescaled_to_budget(geom, gains, traced.gram, closed), rtol=1e-13)

    def test_all_zero_gains_raise(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[0.0, 0.0], aod=[0.1, 0.2], aoa=[0.0, 0.3])
        traced = traced_state(geom, paths, np.ones((4, 2)))
        with pytest.raises(InvalidInputError, match="every path gain is zero"):
            allocate_power(geom, paths, traced)

    def test_exact_cancellation_raises(self):
        # Two identical unit subchannels with gains 1 and -1 and equal
        # factors: the gain-weighted sum is zero.
        geom = ArrayGeometry(n_t=2, n_r=2)
        paths = PathSet(gains=[1.0, -1.0], aod=[0.3, 0.3], aoa=[-0.1, -0.1])
        traced = traced_state(geom, paths, np.ones((2, 2)))
        message = "weighted subchannel sum cancels to zero"
        with pytest.raises(NumericalFailureError, match=message):
            allocate_power(geom, paths, traced)

    @pytest.mark.parametrize("n_t, n_paths", [(2, 3), (3, 2)], ids=["paths", "antennas"])
    def test_rejects_a_state_of_other_paths_or_antennas(self, n_t, n_paths):
        geom = ArrayGeometry(n_t=2, n_r=2)
        paths = PathSet(gains=[1.0, 0.5], aod=[0.3, -0.2], aoa=[-0.1, 0.4])
        state = gram_state(np.eye(n_paths), np.ones((n_t, n_paths)))
        with pytest.raises(InvalidInputError, match="state must match the geometry and path count"):
            allocate_power(geom, paths, state)


class TestDesignPattern:
    def test_returns_consistent_pair(self):
        rng = np.random.default_rng(87)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 10)
        pattern, state = design_pattern(geom, paths)
        assert isinstance(pattern, PatternMatrix)
        assert np.array_equal(pattern.m_hat, state.m_hat)
        assert sorted(state.order.tolist()) == list(range(10))
        assert np.all(pattern.p > 0)
        allocated = allocate_power(geom, paths, state)
        assert np.array_equal(pattern.p, allocated.p)

    def test_batch_matches_single_designs(self):
        rng = np.random.default_rng(88)
        geom = ArrayGeometry(n_t=16, n_r=4)
        path_sets = [random_paths(rng, 10) for _ in range(4)]
        pattern, _ = design_pattern(geom, stack_paths(path_sets))
        assert pattern.m_hat.shape == (4, 16, 10) and pattern.p.shape == (4, 10)
        for row, paths in enumerate(path_sets):
            single_pattern, single_state = design_pattern(geom, paths)
            assert np.array_equal(pattern.m_hat[row], single_state.m_hat)
            assert np.array_equal(pattern.p[row], single_pattern.p)
