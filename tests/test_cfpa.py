import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import feasible_m_hat, random_paths, rescaled_to_budget
from oracles import kept_allocation_factors, modified_subchannels, tensor_power_scaling
from prmimo import (
    ArrayGeometry,
    DegenerateChannelError,
    InvalidInputError,
    PathSet,
    PatternMatrix,
    PowerAllocation,
    allocate_power,
    assemble_pattern_channel,
    cfpa_weights,
    design_pattern,
    run_sof,
    subchannel_gram,
)


class TestCfpaWeights:
    def test_inverse_proportions(self):
        w_hat, w = cfpa_weights([4.0, 2.0, 1.0])
        assert_allclose(w_hat, [1.0, 2.0, 4.0], rtol=1e-12)
        assert_allclose(w, [1 / 7, 2 / 7, 4 / 7], rtol=1e-12)

    def test_uniform_indicator(self):
        _, w = cfpa_weights([0.3, 0.3, 0.3, 0.3])
        assert_allclose(w, np.full(4, 0.25), rtol=1e-12)

    def test_zero_entry_hits_floor(self):
        w_hat, w = cfpa_weights([1.0, 0.0])
        assert_allclose(w_hat, [1.0, 1e6], rtol=1e-12)
        assert_allclose(w, [1.0 / (1.0 + 1e6), 1e6 / (1.0 + 1e6)], rtol=1e-12)

    def test_all_zero_degenerates_to_uniform(self):
        w_hat, w = cfpa_weights([0.0, 0.0, 0.0])
        assert_allclose(w_hat, np.ones(3))
        assert_allclose(w, np.full(3, 1 / 3))

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            _, w = cfpa_weights(rng.uniform(0.0, 5.0, int(rng.integers(1, 40))))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_more_correlated_gets_less_power(self):
        rng = np.random.default_rng(82)
        indicator = rng.uniform(0.1, 5.0, 30)
        _, w = cfpa_weights(indicator)
        order = np.argsort(indicator)
        assert np.all(np.diff(w[order]) <= 0)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            cfpa_weights([1.0, -0.1])


class TestPaperClosedForm:
    # The oracle is the paper's allocation: scale factor delta for the
    # phase-free sum, then factors w * delta / |gain|.
    def test_single_unit_subchannel(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        paths = PathSet(gains=[1.0], aod=[0.3], aoa=[-0.1])
        gram = subchannel_gram(geom, paths, np.ones((8, 1)))
        p = kept_allocation_factors(geom, paths.gains, gram.g, gram.indicator)
        assert_allclose(p, [np.sqrt(16.0)], rtol=1e-12)

    def test_identical_subchannels_collapse(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.3, 0.3], aoa=[-0.1, -0.1])
        gram = subchannel_gram(geom, paths, np.ones((8, 2)))
        p = kept_allocation_factors(geom, paths.gains, gram.g, gram.indicator)
        assert_allclose(p, np.full(2, 0.5 * np.sqrt(16.0)), rtol=1e-12)

    def test_defining_trace_identity(self):
        rng = np.random.default_rng(83)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 6)
        m_hat = feasible_m_hat(rng, 8, 6)
        gram = subchannel_gram(geom, paths, m_hat)
        subs = modified_subchannels(geom, paths, m_hat)
        indicator = rng.uniform(0.1, 2.0, 6)
        _, w = cfpa_weights(indicator)
        # p * |gain| is w * delta, and w sums to 1.
        p = kept_allocation_factors(geom, paths.gains, gram.g, indicator)
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
        pattern, _ = allocate_power(geom, paths, state.m_hat, state.gram)
        closed = kept_allocation_factors(geom, paths.gains, state.gram.g, state.gram.indicator)
        expected = rescaled_to_budget(geom, paths.gains, state.gram.g, closed)
        assert_allclose(pattern.p, expected, rtol=1e-13)


class TestPowerAllocationType:
    def test_rejects_bad_proportions(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation(w_hat=np.ones(2), w=np.array([0.6, 0.6]))

    def test_rejects_negative_proportions(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation(w_hat=np.ones(2), w=np.array([1.5, -0.5]))

    def test_proportion_sum_bound(self):
        from prmimo.numerics import PROPORTION_SUM_TOL

        inside = np.array([0.5, 0.5 + 0.5 * PROPORTION_SUM_TOL])
        outside = np.array([0.5, 0.5 + 2.0 * PROPORTION_SUM_TOL])
        PowerAllocation(w_hat=inside, w=inside)
        with pytest.raises(InvalidInputError, match="sum to 1"):
            PowerAllocation(w_hat=outside, w=outside)


class TestAllocatePower:
    def test_renormalized_channel_meets_budget(self):
        rng = np.random.default_rng(84)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 12)
        state = run_sof(geom, paths)
        pattern, _ = allocate_power(geom, paths, state.m_hat, state.gram)
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
        gram = subchannel_gram(geom, paths, m_hat)
        pattern, allocation = allocate_power(geom, paths, m_hat, gram)
        assert pattern.p.size == 4 and pattern.p[2] == 0.0
        assert np.all(np.delete(pattern.p, 2) > 0)
        assert allocation.w_hat[2] == 0.0 and allocation.w[2] == 0.0

    def test_all_zero_gains_raise(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[0.0, 0.0], aod=[0.1, 0.2], aoa=[0.0, 0.3])
        gram = subchannel_gram(geom, paths, np.ones((4, 2)))
        with pytest.raises(DegenerateChannelError):
            allocate_power(geom, paths, np.ones((4, 2)), gram)

    def test_exact_cancellation_raises(self):
        # Two identical unit subchannels with gains 1 and -1 and equal
        # factors: the gain-weighted sum is zero.
        geom = ArrayGeometry(n_t=2, n_r=2)
        paths = PathSet(gains=[1.0, -1.0], aod=[0.3, 0.3], aoa=[-0.1, -0.1])
        gram = subchannel_gram(geom, paths, np.ones((2, 2)))
        message = "weighted subchannel sum cancels to zero"
        with pytest.raises(DegenerateChannelError, match=message):
            allocate_power(geom, paths, np.ones((2, 2)), gram)

    def test_rejects_gram_size_mismatch(self):
        geom = ArrayGeometry(n_t=2, n_r=2)
        paths = PathSet(gains=[1.0, 0.5], aod=[0.3, -0.2], aoa=[-0.1, 0.4])
        three = PathSet(gains=[1.0, 0.5, 0.2], aod=[0.3, -0.2, 0.1], aoa=[-0.1, 0.4, 0.0])
        gram = subchannel_gram(geom, three, np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            allocate_power(geom, paths, np.ones((2, 2)), gram)


class TestDesignPattern:
    def test_returns_consistent_triple(self):
        rng = np.random.default_rng(87)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 10)
        pattern, allocation, state = design_pattern(geom, paths)
        assert isinstance(pattern, PatternMatrix)
        assert np.array_equal(pattern.m_hat, state.m_hat)
        assert sorted(state.order.tolist()) == list(range(10))
        assert np.all(pattern.p > 0)
        assert np.all(allocation.w > 0)

    def test_batch_matches_single_designs(self):
        from prmimo.channel import stack_paths

        rng = np.random.default_rng(88)
        geom = ArrayGeometry(n_t=16, n_r=4)
        path_sets = [random_paths(rng, 10) for _ in range(4)]
        pattern, allocation, _ = design_pattern(geom, stack_paths(path_sets))
        assert pattern.m_hat.shape == (4, 16, 10) and pattern.p.shape == (4, 10)
        for row, paths in enumerate(path_sets):
            single_pattern, single_allocation, single_state = design_pattern(geom, paths)
            assert np.array_equal(pattern.m_hat[row], single_state.m_hat)
            assert np.array_equal(pattern.p[row], single_pattern.p)
            assert np.array_equal(allocation.w[row], single_allocation.w)
