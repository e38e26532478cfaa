import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import physical_channel
from oracles import condition_profile, steering_matrix, steering_vector
from prmimo import ArrayGeometry, InvalidInputError, PathSet, Scenario, draw_paths


class TestArrayGeometry:
    def test_accepts_valid(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        assert geom.spacing_t == 0.5 and geom.spacing_r == 0.5

    def test_rejects_more_receive_than_transmit(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(n_t=8, n_r=16)

    @pytest.mark.parametrize("n_t, n_r", [(4, 0), (0, 0)])
    def test_rejects_a_zero_count(self, n_t, n_r):
        with pytest.raises(InvalidInputError, match="need n_t >= n_r >= 1"):
            ArrayGeometry(n_t=n_t, n_r=n_r)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(n_t=4, n_r=2, spacing_t=0.0)

    @pytest.mark.parametrize(
        "n_t,n_r", [(8.5, 4), (8, 4.0), (True, 1), (8, True), ("8", 4), (np.float64(8), 4)]
    )
    def test_rejects_non_integral_counts(self, n_t, n_r):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            ArrayGeometry(n_t=n_t, n_r=n_r)

    def test_accepts_numpy_integer_counts(self):
        geom = ArrayGeometry(n_t=np.int64(8), n_r=np.uint8(4))
        assert (geom.n_t, geom.n_r) == (8, 4)
        assert type(geom.n_t) is int and type(geom.n_r) is int

    # An integer past the float range is infinite as a float.
    @pytest.mark.parametrize("value", [np.nan, np.inf, 10**400])
    def test_rejects_non_finite_spacing(self, value):
        with pytest.raises(InvalidInputError, match="finite"):
            ArrayGeometry(n_t=4, n_r=2, spacing_t=value)
        with pytest.raises(InvalidInputError, match="finite"):
            ArrayGeometry(n_t=4, n_r=2, spacing_r=value)

    @pytest.mark.parametrize("value", [True, "0.5", [0.5], 0.5j], ids=repr)
    def test_rejects_spacing_that_is_not_a_real_number(self, value):
        # True would build a one-wavelength array; the others failed with
        # a bare TypeError.
        for side in ("spacing_t", "spacing_r"):
            with pytest.raises(InvalidInputError) as raised:
                ArrayGeometry(n_t=8, n_r=2, **{side: value})
            assert str(raised.value) == f"{side} must be a real number, got {value!r}"

    def test_stores_spacings_as_float(self):
        geom = ArrayGeometry(n_t=8, n_r=2, spacing_t=1, spacing_r=np.float32(0.25))
        assert (geom.spacing_t, geom.spacing_r) == (1.0, 0.25)
        assert type(geom.spacing_t) is float and type(geom.spacing_r) is float

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_t=4, n_r=2, spacing_t=1e308),
            dict(n_t=32, n_r=8, spacing_t=6e305),
            dict(n_t=4, n_r=2, spacing_r=1e308),
            dict(n_t=1, n_r=1, spacing_t=1e308),
        ],
    )
    def test_rejects_spacing_whose_phases_overflow(self, kwargs):
        # Each of these failed every trial in its steering or coupling phases.
        with pytest.raises(InvalidInputError, match="too large"):
            ArrayGeometry(**kwargs)

    def test_accepts_spacing_whose_largest_phase_is_finite(self):
        # 4*pi*d*(n-1) stays finite, and so do all phases.
        ArrayGeometry(n_t=32, n_r=8, spacing_t=1e305, spacing_r=1e305)


class TestPathSet:
    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            PathSet(gains=[1.0, 1.0], aod=[0.0], aoa=[0.0, 0.0])

    def test_rejects_ragged_entries(self):
        # numpy's own ValueError escaped for a ragged list.
        with pytest.raises(InvalidInputError, match="must share one length >= 1"):
            PathSet(gains=[[1, 2], [1]], aod=[[0.0, 0.1], [0.0]], aoa=[[0.0, 0.2], [0.0]])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # Reported as a length mismatch.
            ("gains", ["a"], "path gains must be real or complex, got dtype <U1"),
            # A bare TypeError escaped.
            ("aod", [1j], "path aod must be real, got dtype complex128"),
            # Accepted: a string angle, and a bool gain.
            ("aod", "0.1", "path aod must be real, got dtype <U3"),
            ("gains", [True], "path gains must be real or complex, got dtype bool"),
            ("aoa", [False], "path aoa must be real, got dtype bool"),
            ("aoa", [None], "path aoa must be real, got dtype object"),
        ],
        ids=["string-gain", "complex-aod", "string-aod", "bool-gain", "bool-aoa", "object-aoa"],
    )
    def test_rejects_arrays_of_the_wrong_type(self, field, value, message):
        fields = {"gains": [1.0], "aod": [0.0], "aoa": [0.0], field: value}
        with pytest.raises(InvalidInputError) as raised:
            PathSet(**fields)
        assert str(raised.value) == message

    def test_accepts_integer_float_and_complex_entries(self):
        paths = PathSet(gains=[1, 2.5, 1j], aod=[0, 1, np.float32(0.5)], aoa=np.zeros(3, dtype=int))
        assert paths.gains.dtype == complex and paths.aod.dtype == paths.aoa.dtype == float
        assert np.array_equal(paths.gains, [1.0, 2.5, 1j])
        assert np.array_equal(paths.aod, [0.0, 1.0, 0.5])

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(InvalidInputError):
            PathSet(gains=[1.0], aod=[2.0], aoa=[0.0])

    def test_len(self):
        assert len(PathSet(gains=[1.0, 2.0], aod=[0.0, 0.1], aoa=[0.0, 0.2])) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gains", np.nan),
            ("gains", np.inf),
            ("gains", complex(1.0, np.nan)),
            ("aod", np.nan),
            ("aod", -np.inf),
            ("aoa", np.nan),
            ("aoa", np.inf),
        ],
    )
    def test_rejects_non_finite_entries(self, field, value):
        # NaN passes the range check (abs(nan) > pi/2 is false), so
        # finiteness is checked on its own.
        fields = {"gains": [1.0, 1.0], "aod": [0.0, 0.1], "aoa": [0.0, 0.2]}
        fields[field][1] = value
        with pytest.raises(InvalidInputError, match=f"path {field} must be finite"):
            PathSet(**fields)

    def test_rejects_non_finite_stacked_entries(self):
        gains = np.ones((2, 3))
        gains[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="path gains must be finite"):
            PathSet(gains=gains, aod=np.zeros((2, 3)), aoa=np.zeros((2, 3)))


class TestSteeringVector:
    def test_broadside(self):
        assert_allclose(steering_vector(4, 0.5, 0.0), 0.5 * np.ones(4))

    def test_endfire_two_elements(self):
        v = steering_vector(2, 0.5, np.pi / 2)
        assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-14)

    def test_matches_direct_formula(self):
        n, spacing, angle = 8, 0.5, np.pi / 6
        v = steering_vector(n, spacing, angle)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        k = np.arange(n)
        direct = np.exp(-2j * np.pi * spacing * k * np.sin(angle)) / np.sqrt(n)
        assert_allclose(v, direct, atol=1e-14)

    def test_unit_norm_property(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 33))
            v = steering_vector(n, rng.uniform(0.1, 2.0), rng.uniform(-np.pi / 2, np.pi / 2))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_rejects_zero_elements(self):
        with pytest.raises(InvalidInputError):
            steering_vector(0, 0.5, 0.0)


class TestSteeringMatrix:
    # The library's steering matrices, as tests/oracles.py states them:
    # the phases of ``steering_phases`` over sqrt(n).
    def test_numpy_count_gives_unit_norm_columns(self):
        a = steering_matrix(np.int64(5), 0.5, [0.3, -1.2])
        assert a.shape == (5, 2)
        assert_allclose(np.linalg.norm(a, axis=0), 1.0, rtol=1e-12)
        assert_allclose(a[:, 0], steering_vector(5, 0.5, 0.3), atol=1e-14)


class TestAssemblePhysical:
    def test_single_broadside_path(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0], aod=[0.0], aoa=[0.0])
        h = physical_channel(geom, paths)
        assert_allclose(h, np.ones((2, 4)) / np.sqrt(8), atol=1e-14)

    def test_linearity_in_gains(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        single = PathSet(gains=[1.0], aod=[0.3], aoa=[-0.2])
        double = PathSet(gains=[1.0, 1.0], aod=[0.3, 0.3], aoa=[-0.2, -0.2])
        assert_allclose(physical_channel(geom, double), 2.0 * physical_channel(geom, single), atol=1e-14)

    def test_matches_element_wise_sum(self):
        rng = np.random.default_rng(42)
        geom = ArrayGeometry(n_t=4, n_r=2)
        gains = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        aod = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        aoa = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        paths = PathSet(gains=gains, aod=aod, aoa=aoa)
        h = physical_channel(geom, paths)
        # Independent oracle: accumulate each entry from the rank-one terms.
        expected = np.zeros((2, 4), dtype=complex)
        root = np.sqrt(geom.n_r * geom.n_t)
        for n in range(geom.n_r):
            for m in range(geom.n_t):
                for l in range(6):
                    expected[n, m] += (
                        gains[l]
                        * np.exp(-2j * np.pi * geom.spacing_r * n * np.sin(aoa[l]))
                        * np.exp(2j * np.pi * geom.spacing_t * m * np.sin(aod[l]))
                        / root
                    )
        assert_allclose(h, expected, atol=1e-12)


def cluster_scenario(**kwargs):
    kwargs = dict(geometry=ArrayGeometry(n_t=32, n_r=8), n_cl=10, n_ray=8) | kwargs
    return Scenario(**kwargs)


class TestDrawPaths:
    def test_zero_spread_pins_rays_to_their_cluster_mean(self):
        scenario = cluster_scenario(n_cl=4, n_ray=3, angle_spread=0.0, trials=5)
        paths = draw_paths(scenario, 1, 5)
        assert paths.gains.shape == (4, 12)
        for angles in (paths.aod, paths.aoa):
            rays = angles.reshape(4, 4, 3)
            assert np.array_equal(rays, np.repeat(rays[..., :1], 3, axis=-1))

    def test_gain_variance(self):
        # One cluster holds the whole budget: E|g|^2 = n_t*n_r/n_ray.
        scenario = cluster_scenario(n_cl=1, n_ray=100_000, condition="good", trials=1)
        paths = draw_paths(scenario, 0, 1)
        empirical = np.mean(np.abs(paths.gains) ** 2) * scenario.n_ray
        assert abs(empirical - 256.0) <= 0.03 * 256.0

    def test_angles_clipped_to_range(self):
        # A 60 degree spread reaches past +-pi/2 around most cluster means.
        scenario = cluster_scenario(angle_spread=np.deg2rad(60.0), trials=20)
        paths = draw_paths(scenario, 0, 20)
        for angles in (paths.aod, paths.aoa):
            assert np.all(np.abs(angles) <= np.pi / 2)
            assert np.any(angles == np.pi / 2) and np.any(angles == -np.pi / 2)

    def test_mean_channel_power(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        scenario = cluster_scenario(angle_spread=np.deg2rad(3.0), trials=2000)
        total = 0.0
        for start in range(0, 2000, 500):
            h = physical_channel(geom, draw_paths(scenario, start, start + 500))
            total += np.sum(np.abs(h) ** 2)
        expected = geom.n_t * geom.n_r
        assert abs(total / 2000 - expected) <= 0.05 * expected

    # Each trial's stream is a pure function of (seed, index); that it is
    # the SeedSequence stream of tests/oracles.py, row by row, is
    # tests/test_properties.py's batch-draw test.
    def test_reproducible(self):
        scenario = cluster_scenario(master_seed=123, trials=8)
        a, b = draw_paths(scenario, 7, 8), draw_paths(scenario, 7, 8)
        for name in ("gains", "aod", "aoa"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_independent_indices(self):
        paths = draw_paths(cluster_scenario(master_seed=123, trials=2), 0, 2)
        assert not np.allclose(paths.gains[0], paths.gains[1])
        assert not np.allclose(paths.aod[0], paths.aod[1])

    def test_numpy_integers_give_the_int_stream(self):
        numpy_seed = cluster_scenario(master_seed=np.int64(123), trials=8)
        a = draw_paths(numpy_seed, np.uint8(7), np.uint8(8))
        b = draw_paths(cluster_scenario(master_seed=123, trials=8), 7, 8)
        for name in ("gains", "aod", "aoa"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize(
        "start, stop", [(0, 0), (3, 2), (-1, 2), (0, 6), (0.0, 2), (0, True)]
    )
    def test_rejects_trial_ranges_outside_the_campaign(self, start, stop):
        with pytest.raises(InvalidInputError, match="trial range|must be an integer"):
            draw_paths(cluster_scenario(trials=5), start, stop)


class TestConditionProfile:
    # The oracle's per-trial profile, whose draws ``draw_paths`` matches
    # byte for byte (tests/test_properties.py).
    def test_ill_four_clusters(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        profile = condition_profile("ill", geom, 4, 8, 0.0, np.random.default_rng(0))
        budget = 32.0
        assert_allclose(profile.sigma_sq, np.array([100.0, 50.0, 50.0, 1.0]) / 201.0 * budget, rtol=1e-12)

    def test_ill_ten_clusters_budget(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        profile = condition_profile("ill", geom, 10, 8, 0.0, np.random.default_rng(0))
        # ratio pattern 100:50:50:1:...:1 has total 207 for ten clusters
        assert_allclose(profile.sigma_sq.sum(), 32.0, rtol=1e-12)
        assert_allclose(profile.sigma_sq[0], 100.0 / 207.0 * 32.0, rtol=1e-12)

    def test_good_positive_and_budgeted(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        profile = condition_profile("good", geom, 10, 8, 0.0, np.random.default_rng(5))
        assert np.all(profile.sigma_sq > 0)
        assert abs(profile.sigma_sq.sum() - 32.0) <= 1e-12 * 32.0
