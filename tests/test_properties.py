"""Property tests of the power allocation on edge geometries.

Hypothesis draws array sizes from n_t = n_r up to n_t = 128, spacings
other than half a wavelength, single-path sets, repeated and endfire
(+-pi/2) angles and zero-gain paths. Examples are derandomized, so a run
is reproducible, and few, so the suite stays quick.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import modified_subchannels, tensor_power_scaling
from prmimo import ArrayGeometry, PathSet, allocate_power, assemble_pattern_channel, run_sof

HALF_PI = np.pi / 2.0

spacings = st.one_of(st.just(0.5), st.floats(0.1, 2.0))
angles = st.one_of(st.sampled_from((-HALF_PI, HALF_PI, 0.0)), st.floats(-HALF_PI, HALF_PI))


@st.composite
def geometries(draw):
    n_r = draw(st.integers(1, 8))
    n_t = draw(st.one_of(st.just(n_r), st.integers(n_r, 128)))
    return ArrayGeometry(n_t=n_t, n_r=n_r, spacing_t=draw(spacings), spacing_r=draw(spacings))


@st.composite
def path_sets(draw, max_paths=12):
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
    pattern, allocation = allocate_power(geometry, paths, state.m_hat, state.gram)

    keep = np.abs(paths.gains) > 0.0
    subchannels = modified_subchannels(geometry, paths, state.m_hat)[keep]
    expected = tensor_power_scaling(geometry, subchannels, allocation.w)
    assert abs(allocation.delta - expected) <= 1e-12 * expected

    h = assemble_pattern_channel(geometry, paths, pattern)
    budget = geometry.n_t * geometry.n_r
    assert abs(np.sum(np.abs(h) ** 2) - budget) <= 1e-9 * budget
