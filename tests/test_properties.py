"""Property tests of the design on edge geometries.

Hypothesis draws array sizes from n_t = n_r up to n_t = 256, spacings
other than half a wavelength, single-path sets, more paths than
n_t * n_r, repeated and endfire (+-pi/2) angles, zero-gain paths and
campaigns with no angular spread (xi = 0). It checks the power
allocation, the Gram power of a pattern channel against its assembled
power, the invariants of the SOF Gram matrix, that lockstep batches of
trials give the bits of one-at-a-time runs, and that a batch draw gives
the bits of per-trial draws. Two symmetries of the model hold on draws
of the benchmark's workload shapes: relabeling the paths and scaling
every gain. Examples are derandomized, so a run is reproducible, and
few, so the suite stays quick.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_sof_bits_match_full_phase_penalty,
    one_trial,
    physical_channel,
    rescaled_to_budget,
    stack_paths,
    traced_state,
)
from oracles import (
    direct_trace_gram,
    kept_allocation_factors,
    kept_weights,
    modified_subchannels,
    per_trial_draw,
    tensor_power_scaling,
)
from prmimo import (
    ArrayGeometry,
    NumericalFailureError,
    PathSet,
    PatternMatrix,
    PrMimoError,
    Scenario,
    allocate_power,
    assemble_pattern_channel,
    capacity,
    design_pattern,
    draw_paths,
    ideal_capacity,
    run_sof,
    run_trials,
)
from prmimo.cfpa import _gram_power
from prmimo.numerics import COLUMN_NORM_RTOL, one_blas_thread

HALF_PI = np.pi / 2.0

spacings = st.one_of(st.just(0.5), st.floats(0.1, 2.0))
angles = st.one_of(st.sampled_from((-HALF_PI, HALF_PI, 0.0)), st.floats(-HALF_PI, HALF_PI))


@st.composite
def geometries(draw):
    n_r = draw(st.integers(1, 8))
    n_t = draw(st.one_of(st.just(n_r), st.integers(n_r, 256)))
    return ArrayGeometry(n_t=n_t, n_r=n_r, spacing_t=draw(spacings), spacing_r=draw(spacings))


@st.composite
def crowded_geometries(draw):
    # At most 3 x 2 elements, so a path set easily exceeds n_t * n_r.
    n_r = draw(st.integers(1, 2))
    n_t = draw(st.integers(n_r, 3))
    return ArrayGeometry(n_t=n_t, n_r=n_r, spacing_t=draw(spacings), spacing_r=draw(spacings))


@st.composite
def path_sets(draw, max_paths=12, n_paths=None):
    if n_paths is None:
        n_paths = draw(st.integers(1, max_paths))
    # Paths pick their (departure, arrival) pair from a pool that can be
    # smaller than the path count, so duplicate angles are common.
    pool = draw(st.lists(st.tuples(angles, angles), min_size=1, max_size=n_paths))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_paths, max_size=n_paths))
    magnitudes = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n_paths, max_size=n_paths)))
    phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=n_paths, max_size=n_paths)))
    zero = np.array(draw(st.lists(st.booleans(), min_size=n_paths, max_size=n_paths)))
    zero[draw(st.integers(0, n_paths - 1))] = False  # at least one path carries energy
    gains = np.where(zero, 0.0, magnitudes * np.exp(1j * phases))
    return PathSet(
        gains=gains,
        aod=[pool[i][0] for i in picks],
        aoa=[pool[i][1] for i in picks],
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(geometry=geometries(), paths=path_sets())
def test_gram_scale_factor_matches_tensor_oracle(geometry, paths):
    state = run_sof(geometry, paths)
    pattern = allocate_power(geometry, paths, state)

    # The paper's closed form, w * delta / |gain| with delta from the
    # explicit slabs: zero-gain paths have proportion 0, so they add
    # nothing to the sum, and their factor is 0.
    magnitudes = np.abs(paths.gains)
    keep = magnitudes > 0.0
    w_hat = kept_weights(paths.gains, state.indicator)
    w = w_hat / w_hat.sum()
    subchannels = modified_subchannels(geometry, paths, state.m_hat)
    delta = tensor_power_scaling(geometry, subchannels, w)
    closed = w * delta / np.where(keep, magnitudes, 1.0)
    expected = rescaled_to_budget(geometry, paths.gains, state.gram, closed)
    assert np.all(np.abs(pattern.p - expected) <= 1e-13 * expected)

    h = assemble_pattern_channel(geometry, paths, pattern)
    budget = geometry.n_t * geometry.n_r
    assert abs(np.sum(np.abs(h) ** 2) - budget) <= 1e-9 * budget


@st.composite
def batches(draw):
    """A geometry and 1-5 path sets that share one path count."""
    geometry = draw(st.one_of(geometries(), crowded_geometries()))
    n_paths = draw(st.integers(1, 12))
    size = draw(st.integers(1, 5))
    return geometry, [draw(path_sets(n_paths=n_paths)) for _ in range(size)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch=batches())
def test_lockstep_sof_matches_single_runs_and_keeps_gram_invariants(batch):
    geometry, sets = batch
    stacked = run_sof(geometry, stack_paths(sets))
    for row, paths in enumerate(sets):
        single = run_sof(geometry, paths)
        assert np.array_equal(stacked.order[row], single.order)
        assert np.array_equal(stacked.m_hat[row], single.m_hat)
        assert np.array_equal(stacked.gram[row], single.gram)
        assert np.array_equal(stacked.indicator[row], single.indicator)

        g = stacked.gram[row]
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.abs(np.diag(g) - 1.0) <= COLUMN_NORM_RTOL)
        assert np.max(np.abs(g - direct_trace_gram(geometry, paths, stacked.m_hat[row]))) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch=batches())
def test_sof_bits_match_the_full_phase_penalty(batch):
    geometry, sets = batch
    assert_sof_bits_match_full_phase_penalty(geometry, stack_paths(sets))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch=batches())
def test_zero_gain_paths_are_left_out_of_the_allocation(batch):
    # The allocation masks zero-gain paths inside its one code path; the
    # oracle removes them before the closed form. A stack, zero-gain rows
    # included, gives each row the bits of its one-set call.
    geometry, sets = batch
    pattern, _ = design_pattern(geometry, stack_paths(sets))
    for row, paths in enumerate(sets):
        single_pattern, state = design_pattern(geometry, paths)
        assert np.array_equal(pattern.p[row], single_pattern.p)

        keep = np.abs(paths.gains) > 0.0
        closed = kept_allocation_factors(geometry, paths.gains, state.gram, state.indicator)
        expected = rescaled_to_budget(geometry, paths.gains, state.gram, closed)
        p = single_pattern.p
        assert p.shape == paths.gains.shape
        assert np.all(p[~keep] == 0.0)
        assert np.all(np.abs(p[keep] - expected[keep]) <= 1e-13 * expected[keep])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch=batches())
def test_power_factors_are_positive_exactly_on_the_nonzero_gains(batch):
    geometry, sets = batch
    paths = stack_paths(sets)
    pattern, _ = design_pattern(geometry, paths)
    assert np.array_equal(pattern.p > 0.0, np.abs(paths.gains) > 0.0)
    assert np.all(pattern.p[np.abs(paths.gains) == 0.0] == 0.0)


@st.composite
def patterns(draw):
    """One path set or a stack of up to 5, with arbitrary pattern gains.

    Columns are nonnegative with squared norm n_t, from spread out to a
    single active antenna; power factors are nonnegative, zeros included.
    """
    geometry, sets = draw(batches())
    paths = stack_paths(sets) if draw(st.booleans()) else sets[0]
    shape = paths.gains.shape[:-1] + (geometry.n_t, len(paths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < draw(st.floats(0.0, 1.0)))
    np.put_along_axis(raw, rng.integers(0, geometry.n_t, shape[:-2] + (1, shape[-1])), 1.0, axis=-2)
    m_hat = raw * np.sqrt(geometry.n_t / np.sum(raw**2, axis=-2, keepdims=True))
    factors = st.lists(st.floats(0.0, 1e3), min_size=paths.gains.size, max_size=paths.gains.size)
    p = np.array(draw(factors))
    return geometry, paths, PatternMatrix(m_hat=m_hat, p=p.reshape(paths.gains.shape))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=patterns())
def test_gram_power_matches_assembled_channel_power(case):
    # The allocation reads the pattern channel's power off the Gram matrix
    # of its unit-norm subchannels: Re(c^H G c) with c = gains * p. Its
    # error is relative to (sum |c_l|)^2, the power when nothing cancels;
    # a sum that cancels has no relative accuracy in either form.
    geometry, paths, pattern = case
    traced = traced_state(geometry, paths, pattern.m_hat)
    h = assemble_pattern_channel(geometry, paths, pattern)
    assembled = np.sum(np.abs(h.reshape(h.shape[:-2] + (-1,))) ** 2, axis=-1)
    c = paths.gains * pattern.p
    scale = np.sum(np.abs(c), axis=-1) ** 2
    try:
        power = _gram_power(traced.gram, c)
    except NumericalFailureError:
        assert np.any(assembled <= 1e-12 * scale)
        return
    assert np.all(np.abs(power - assembled) <= 1e-12 * scale)


@st.composite
def scenarios(draw):
    """Small campaigns on edge geometries, some without angular spread."""
    n_r = draw(st.integers(1, 4))
    n_t = draw(st.one_of(st.just(n_r), st.integers(n_r, 16)))
    geometry = ArrayGeometry(n_t=n_t, n_r=n_r, spacing_t=draw(spacings), spacing_r=draw(spacings))
    condition = draw(st.sampled_from(("good", "ill")))
    n_cl = draw(st.integers(4 if condition == "ill" else 1, 5))
    return Scenario(
        geometry=geometry,
        n_cl=n_cl,
        n_ray=draw(st.integers(1, 3)),
        condition=condition,
        angle_spread=draw(st.sampled_from((0.0, np.deg2rad(3.0), np.deg2rad(20.0)))),
        snr_db=np.array([-10.0, 10.0, 30.0]),
        trials=8,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    scenario=scenarios(),
    start=st.integers(0, 3),
    size=st.integers(1, 5),
)
def test_lockstep_trials_match_single_trials(scenario, start, size):
    stop = start + size
    try:
        physical, designed = run_trials(scenario, start, stop)
    except PrMimoError:
        # A batch fails only if one of its trials fails on its own.
        failures = 0
        for index in range(start, stop):
            try:
                one_trial(scenario, index)
            except PrMimoError:
                failures += 1
        assert failures
        return
    for row, index in enumerate(range(start, stop)):
        single_physical, single_designed = one_trial(scenario, index)
        assert np.array_equal(physical[row], single_physical)
        assert np.array_equal(designed[row], single_designed)
    # The designed channel meets the power budget, so it cannot beat the
    # equal-eigenvalue ideal channel.
    ideal = ideal_capacity(scenario.geometry, 10.0 ** (scenario.snr_db / 10.0))
    assert np.all(designed <= ideal * (1.0 + 1e-9))


@st.composite
def draw_scenarios(draw):
    """Campaigns of 64 trials over the cluster model's corners."""
    condition = draw(st.sampled_from(("good", "ill")))
    n_r = draw(st.integers(1, 8))
    # A spread of 60 degrees or more reaches past +-pi/2 around most means.
    spread = st.one_of(st.sampled_from((0.0, np.deg2rad(3.0), np.deg2rad(60.0))), st.floats(0, 2))
    return Scenario(
        geometry=ArrayGeometry(n_t=draw(st.integers(n_r, 64)), n_r=n_r),
        n_cl=draw(st.integers(4 if condition == "ill" else 1, 20)),
        n_ray=draw(st.integers(1, 8)),
        condition=condition,
        angle_spread=draw(spread),
        trials=64,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


def corner(condition, n_cl, n_ray, spread):
    return Scenario(ArrayGeometry(n_t=32, n_r=8), n_cl=n_cl, n_ray=n_ray, condition=condition,
                    angle_spread=np.deg2rad(spread), trials=64, master_seed=12345)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenario=draw_scenarios(), start=st.integers(0, 40), size=st.integers(1, 24))
@example(scenario=corner("good", 1, 1, 0.0), start=0, size=3)
@example(scenario=corner("ill", 4, 8, 90.0), start=5, size=7)
@example(scenario=corner("ill", 20, 8, 3.0), start=63, size=1)
@example(scenario=corner("good", 20, 1, 60.0), start=10, size=24)
def test_batch_draw_rows_are_the_per_trial_draws(scenario, start, size):
    # The batch draw keeps every byte of the trial drawn alone.
    batch = draw_paths(scenario, start, start + size)
    for row, index in enumerate(range(start, start + size)):
        alone = per_trial_draw(scenario, index)
        for name in ("gains", "aod", "aoa"):
            assert getattr(batch, name)[row].tobytes() == getattr(alone, name).tobytes(), name


# The (n_cl, n_ray, condition) of the benchmark's workloads on 32 x 8
# arrays with a 3 degree spread.
WORKLOAD_SHAPES = pytest.mark.parametrize(
    "shape",
    [(10, 8, "ill"), (20, 8, "ill"), (4, 2, "good")],
    ids=["ref_ill", "dense_ncl20", "sweep_w2"],
)
SYMMETRY_SNR = 10.0 ** (np.array([-10.0, 10.0, 30.0]) / 10.0)


def workload_batch(shape, seed):
    """Two trials of a workload shape, drawn by ``draw_paths``."""
    n_cl, n_ray, condition = shape
    scenario = Scenario(ArrayGeometry(n_t=32, n_r=8), n_cl=n_cl, n_ray=n_ray,
                        condition=condition, trials=2, master_seed=seed)
    return scenario.geometry, draw_paths(scenario, 0, 2)


def evaluate(geometry, paths):
    """Physical and designed capacities on ``SYMMETRY_SNR``, and the SOF state."""
    with one_blas_thread():
        pattern, state = design_pattern(geometry, paths)
        physical = capacity(physical_channel(geometry, paths), SYMMETRY_SNR)
        designed = capacity(assemble_pattern_channel(geometry, paths, pattern), SYMMETRY_SNR)
    return physical, designed, state


def assert_close(got, want, rtol=1e-12):
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


def separated(indicator):
    # Rows whose indicator entries lie more than 1e-12 (relative) apart.
    values = np.sort(indicator, axis=-1)
    return np.all(np.diff(values, axis=-1) > 1e-12 * values[..., 1:], axis=-1)


@WORKLOAD_SHAPES
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabeling_the_paths_permutes_the_design(shape, seed):
    # Path labels carry no meaning: a permutation of each trial's paths
    # keeps its capacities and permutes its visiting order and columns,
    # unless an indicator tie lets round-off pick another path.
    geometry, paths = workload_batch(shape, seed)
    rows = np.arange(len(paths.gains))[:, None]
    perm = np.argsort(np.random.default_rng(seed).random(paths.gains.shape), axis=-1)
    relabeled = PathSet(*(getattr(paths, f)[rows, perm] for f in ("gains", "aod", "aoa")))
    physical, designed, state = evaluate(geometry, paths)
    physical_r, designed_r, state_r = evaluate(geometry, relabeled)
    assert_close(physical_r, physical)
    assert_close(designed_r, designed)

    initial = traced_state(geometry, paths, np.ones(state.m_hat.shape)).indicator
    untied = separated(initial) & separated(state.indicator)
    assert np.any(untied)
    for t in np.flatnonzero(untied):
        assert np.array_equal(perm[t][state_r.order[t]], state.order[t])
        assert np.all(np.abs(state_r.m_hat[t] - state.m_hat[t][:, perm[t]]) <= 1e-12)


@WORKLOAD_SHAPES
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), phase=st.floats(-np.pi, np.pi))
def test_scaling_every_gain_keeps_the_design(shape, seed, phase):
    # The design reads no gain, and the power allocation scales the
    # pattern channel to the budget: one complex factor on every gain
    # moves no bit of the order or the columns, and no designed capacity,
    # however small or large the factor.
    geometry, paths = workload_batch(shape, seed)
    _, designed, state = evaluate(geometry, paths)
    for magnitude in (1e-9, 1e6):
        gains = magnitude * np.exp(1j * phase) * paths.gains
        _, designed_s, state_s = evaluate(geometry, PathSet(gains, paths.aod, paths.aoa))
        assert state_s.order.tobytes() == state.order.tobytes()
        assert state_s.m_hat.tobytes() == state.m_hat.tobytes()
        assert_close(designed_s, designed)
