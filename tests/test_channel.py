import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import steering_vector
from prmimo import (
    ArrayGeometry,
    ClusterProfile,
    InvalidInputError,
    PathSet,
    assemble_physical,
    condition_profile,
    sample_cluster_paths,
    steering_matrix,
)


class TestArrayGeometry:
    def test_accepts_valid(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        assert geom.spacing_t == 0.5 and geom.spacing_r == 0.5

    def test_rejects_more_receive_than_transmit(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(n_t=8, n_r=16)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_spacing(self, value):
        with pytest.raises(InvalidInputError, match="finite"):
            ArrayGeometry(n_t=4, n_r=2, spacing_t=value)
        with pytest.raises(InvalidInputError, match="finite"):
            ArrayGeometry(n_t=4, n_r=2, spacing_r=value)

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


class TestClusterProfile:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_cluster_power(self, value):
        with pytest.raises(InvalidInputError, match="cluster powers must be finite"):
            ClusterProfile(n_cl=2, n_ray=1, sigma_sq=[1.0, value], angle_spread=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_angle_spread(self, value):
        with pytest.raises(InvalidInputError, match="angle spread must be finite"):
            ClusterProfile(n_cl=2, n_ray=1, sigma_sq=[1.0, 1.0], angle_spread=value)


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
    # It takes a bare count and spacing, not a checked ArrayGeometry, so
    # it checks them itself.
    @pytest.mark.parametrize(
        "n, spacing, message",
        [
            (2.5, 0.5, "antenna count must be an integer"),
            (True, 0.5, "antenna count must be an integer"),
            (2, np.inf, "spacing must be finite"),
            (2, np.nan, "spacing must be finite"),
        ],
        ids=["fractional-count", "bool-count", "inf-spacing", "nan-spacing"],
    )
    def test_rejects_counts_and_spacings_that_give_wrong_columns(self, n, spacing, message):
        with pytest.raises(InvalidInputError, match=message):
            steering_matrix(n, spacing, [0.3])

    def test_numpy_count_gives_unit_norm_columns(self):
        a = steering_matrix(np.int64(5), 0.5, [0.3, -1.2])
        assert a.shape == (5, 2)
        assert_allclose(np.linalg.norm(a, axis=0), 1.0, rtol=1e-12)
        assert_allclose(a[:, 0], steering_vector(5, 0.5, 0.3), atol=1e-14)


class TestAssemblePhysical:
    def test_single_broadside_path(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0], aod=[0.0], aoa=[0.0])
        h = assemble_physical(geom, paths)
        assert_allclose(h, np.ones((2, 4)) / np.sqrt(8), atol=1e-14)

    def test_linearity_in_gains(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        single = PathSet(gains=[1.0], aod=[0.3], aoa=[-0.2])
        double = PathSet(gains=[1.0, 1.0], aod=[0.3, 0.3], aoa=[-0.2, -0.2])
        assert_allclose(assemble_physical(geom, double), 2.0 * assemble_physical(geom, single), atol=1e-14)

    def test_matches_element_wise_sum(self):
        rng = np.random.default_rng(42)
        geom = ArrayGeometry(n_t=4, n_r=2)
        gains = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        aod = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        aoa = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        paths = PathSet(gains=gains, aod=aod, aoa=aoa)
        h = assemble_physical(geom, paths)
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


class TestSampleClusterPaths:
    def test_zero_spread_pins_rays_to_means(self):
        profile = ClusterProfile(n_cl=2, n_ray=3, sigma_sq=[1.0, 2.0], angle_spread=0.0)
        rng = np.random.default_rng(43)
        means_aod = np.array([0.3, -0.5])
        means_aoa = np.array([-0.1, 0.8])
        paths = sample_cluster_paths(profile, means_aod, means_aoa, rng)
        assert_allclose(paths.aod, np.repeat(means_aod, 3))
        assert_allclose(paths.aoa, np.repeat(means_aoa, 3))

    def test_gain_variance(self):
        target = 2.5
        profile = ClusterProfile(n_cl=1, n_ray=100_000, sigma_sq=[target], angle_spread=0.0)
        rng = np.random.default_rng(44)
        paths = sample_cluster_paths(profile, [0.0], [0.0], rng)
        empirical = np.mean(np.abs(paths.gains) ** 2)
        assert abs(empirical - target) <= 0.03 * target

    def test_angles_clipped_to_range(self):
        profile = ClusterProfile(n_cl=1, n_ray=200, sigma_sq=[1.0], angle_spread=np.deg2rad(20.0))
        rng = np.random.default_rng(45)
        paths = sample_cluster_paths(profile, [np.pi / 2], [-np.pi / 2], rng)
        assert np.all(np.abs(paths.aod) <= np.pi / 2)
        assert np.all(np.abs(paths.aoa) <= np.pi / 2)

    def test_mean_channel_power(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        rng = np.random.default_rng(46)
        total = 0.0
        draws = 2000
        for _ in range(draws):
            profile = condition_profile("ill", geom, 10, 8, np.deg2rad(3.0), rng)
            means_aod = rng.uniform(-np.pi / 2, np.pi / 2, 10)
            means_aoa = rng.uniform(-np.pi / 2, np.pi / 2, 10)
            paths = sample_cluster_paths(profile, means_aod, means_aoa, rng)
            total += np.linalg.norm(assemble_physical(geom, paths)) ** 2
        expected = geom.n_t * geom.n_r
        assert abs(total / draws - expected) <= 0.05 * expected

    def test_rejects_wrong_mean_count(self):
        profile = ClusterProfile(n_cl=2, n_ray=1, sigma_sq=[1.0, 1.0], angle_spread=0.0)
        with pytest.raises(InvalidInputError):
            sample_cluster_paths(profile, [0.0], [0.0, 0.0], np.random.default_rng(0))


class TestConditionProfile:
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

    def test_ill_needs_four_clusters(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        with pytest.raises(InvalidInputError):
            condition_profile("ill", geom, 3, 4, 0.0, np.random.default_rng(0))

    def test_rejects_unknown_kind(self):
        geom = ArrayGeometry(n_t=8, n_r=2)
        with pytest.raises(InvalidInputError):
            condition_profile("medium", geom, 4, 4, 0.0, np.random.default_rng(0))
