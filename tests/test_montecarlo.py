import concurrent.futures
import dataclasses
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import fresh_interpreter
import prmimo.montecarlo as montecarlo
import prmimo.numerics as numerics
from prmimo import (
    ArrayGeometry,
    CampaignError,
    CapacityCurve,
    InvalidInputError,
    NumericalFailureError,
    PatternMatrix,
    Scenario,
    capacity,
    draw_paths,
    ideal_capacity,
    run_campaign,
    run_trial,
    run_trials,
    trial_rng,
)


def small_scenario(**overrides):
    settings = dict(
        geometry=ArrayGeometry(n_t=16, n_r=4),
        n_cl=4,
        n_ray=2,
        condition="ill",
        angle_spread=np.deg2rad(3.0),
        snr_db=np.array([0.0, 10.0]),
        trials=4,
        master_seed=99,
    )
    settings.update(overrides)
    return Scenario(**settings)


class TestScenario:
    def test_rejects_empty_snr_grid(self):
        with pytest.raises(InvalidInputError):
            small_scenario(snr_db=np.array([]))

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidInputError):
            small_scenario(trials=0)

    def test_rejects_unknown_condition(self):
        with pytest.raises(InvalidInputError):
            small_scenario(condition="mediocre")

    def test_rejects_negative_spread(self):
        with pytest.raises(InvalidInputError):
            small_scenario(angle_spread=-0.1)

    def test_rejects_ill_with_too_few_clusters(self):
        with pytest.raises(InvalidInputError):
            small_scenario(n_cl=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_spread(self, value):
        with pytest.raises(InvalidInputError, match="finite"):
            small_scenario(angle_spread=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_snr(self, value):
        with pytest.raises(InvalidInputError, match="finite"):
            small_scenario(snr_db=np.array([0.0, value]))

    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    def test_rejects_grid_outside_linear_range(self, value):
        # 10^(value / 10) overflows to inf or underflows to 0.
        with pytest.raises(InvalidInputError, match="linear units"):
            small_scenario(snr_db=np.array([0.0, value]))

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidInputError, match="master seed"):
            small_scenario(master_seed=-1)

    @pytest.mark.parametrize("name", ["n_cl", "n_ray", "trials", "master_seed"])
    @pytest.mark.parametrize("value", [4.5, 4.0, True, np.float64(4.0), "4"])
    def test_rejects_non_integral_counts(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            small_scenario(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        # Converted, so that n_cl * n_ray cannot wrap in a narrow type.
        scenario = small_scenario(
            n_cl=np.uint8(16), n_ray=np.uint8(16), trials=np.int32(3), master_seed=np.uint64(99)
        )
        for name, want in (("n_cl", 16), ("n_ray", 16), ("trials", 3), ("master_seed", 99)):
            value = getattr(scenario, name)
            assert type(value) is int and value == want
        assert scenario.n_cl * scenario.n_ray == 256

    def test_accepts_zero_seed(self):
        assert small_scenario(master_seed=0).master_seed == 0

    def test_good_accepts_few_clusters(self):
        assert small_scenario(n_cl=1, condition="good").n_cl == 1

    @pytest.mark.parametrize(
        "name, value", [("n_ray", 2.5), ("trials", 0), ("snr_db", np.array([1.0])), ("condition", "good")]
    )
    def test_rejects_assignment(self, name, value):
        # Checks run at construction only, so no field may change after it.
        scenario = small_scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, name, value)
        assert np.array_equal(getattr(scenario, name), getattr(small_scenario(), name))

    def test_snr_grid_is_a_read_only_copy(self):
        grid = np.array([0.0, 10.0])
        scenario = small_scenario(snr_db=grid)
        grid[0] = 40.0
        assert np.array_equal(scenario.snr_db, [0.0, 10.0])
        assert not scenario.snr_db.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            scenario.snr_db[0] = 40.0

    def test_unpickled_grid_stays_read_only(self):
        # The worker pool receives its scenario pickled.
        scenario = pickle.loads(pickle.dumps(small_scenario()))
        assert np.array_equal(scenario.snr_db, [0.0, 10.0])
        assert not scenario.snr_db.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            scenario.snr_db[0] = 40.0


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(123, 7).standard_normal(5)
        b = trial_rng(123, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_independent_indices(self):
        a = trial_rng(123, 0).standard_normal(5)
        b = trial_rng(123, 1).standard_normal(5)
        assert not np.allclose(a, b)


class TestIdealCapacity:
    def test_closed_form_value(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        assert_allclose(ideal_capacity(geom, 10.0), 8.0 * np.log2(41.0), rtol=1e-12)

    def test_vanishes_at_low_snr(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        assert ideal_capacity(geom, 1e-12) <= 1e-9

    def test_matches_general_capacity_path(self):
        geom = ArrayGeometry(n_t=32, n_r=8)
        h = np.sqrt(geom.n_t) * np.eye(geom.n_r, geom.n_t)
        for rho in (0.1, 1.0, 10.0, 100.0):
            direct = capacity(h, rho)
            closed = ideal_capacity(geom, rho)
            assert abs(direct - closed) <= 1e-9 * max(1.0, closed)


class TestRunTrial:
    def test_deterministic(self):
        scenario = small_scenario()
        first = run_trial(scenario, 1)
        second = run_trial(scenario, 1)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_single_path_is_rescaled_physical(self):
        scenario = small_scenario(condition="good", n_cl=1, n_ray=1, angle_spread=0.0)
        physical, designed = run_trial(scenario, 0)
        paths = draw_paths(scenario, 0)
        geom = scenario.geometry
        # One path: the designed channel is the physical one rescaled to
        # the full power budget.
        from prmimo import assemble_physical

        h = assemble_physical(geom, paths)
        scale = np.sqrt(geom.n_t * geom.n_r) / abs(paths.gains[0])
        expected = [capacity(h * scale, s) for s in 10.0 ** (scenario.snr_db / 10.0)]
        assert_allclose(designed, expected, rtol=1e-9)
        assert_allclose(physical, [capacity(h, s) for s in 10.0 ** (scenario.snr_db / 10.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidInputError):
            run_trial(small_scenario(), 4)

    def test_safeguard_floors_at_physical(self, monkeypatch):
        scenario = small_scenario()

        def sabotaged_design(geometry, paths):
            # Put all power on one path: a rank-one channel that loses to
            # the physical baseline at high SNR.
            p = np.zeros(paths.gains.shape)
            p[:, 0] = 1.0
            m_hat = np.ones((len(p), geometry.n_t, len(paths)))
            return PatternMatrix(m_hat=m_hat, p=p), None, None

        monkeypatch.setattr(montecarlo, "design_pattern", sabotaged_design)
        physical, unguarded = run_trial(scenario, 0, safeguard=False)
        assert unguarded[-1] < physical[-1]
        physical2, guarded = run_trial(scenario, 0, safeguard=True)
        assert np.array_equal(guarded, physical2)


def force_batch_size(monkeypatch, scenario, size):
    """Set the batch byte budgets so batches hold ``size`` trials."""
    n_paths, n_t = scenario.n_cl * scenario.n_ray, scenario.geometry.n_t
    peak, step = montecarlo.trial_bytes(n_paths, n_t)
    monkeypatch.setattr(montecarlo, "BATCH_STATE_BYTES", size * peak)
    monkeypatch.setattr(montecarlo, "BATCH_STEP_BYTES", size * step)
    assert montecarlo.batch_size(n_paths, n_t) == size


def pin_cores(monkeypatch, cores):
    """Make the campaign see ``cores`` usable cores, so at most that many workers."""
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)


def single_trial_rows(scenario):
    return [run_trial(scenario, index) for index in range(scenario.trials)]


class TestBatchSize:
    def test_budget_rule(self):
        # A peak of 40 L^2 + 88 n_t L + 256 L + 40 n_t^2 bytes per trial
        # within 5 MiB and per-step stacks of 40 n_t^2 + 16 n_t L within
        # 544 KiB, at the benchmark workloads' n_t = 32 and L = 8, 80, 160.
        assert montecarlo.BATCH_STATE_BYTES == 5 << 20
        assert montecarlo.BATCH_STEP_BYTES == 544 << 10
        assert montecarlo.trial_bytes(80, 32) == (542_720, 81_920)
        assert montecarlo.batch_size(8, 32) == 12
        assert montecarlo.batch_size(80, 32) == 6
        assert montecarlo.batch_size(160, 32) == 3
        assert montecarlo.batch_size(8, 8) == 155

    @pytest.mark.parametrize("n_t, n_r", [(32, 8), (8, 8)])
    @pytest.mark.parametrize("n_cl", [10, 20])
    def test_batch_peak_within_byte_model(self, n_cl, n_t, n_r):
        # The traced peak of one campaign batch at L = 80 and 160 stays
        # within the per-trial model times the batch size. At n_t = 8 the
        # L x L arrays are most of it, so an L x L temporary per trial, or
        # a ufunc's iteration buffers (up to 256 KiB), shows.
        geometry = ArrayGeometry(n_t=n_t, n_r=n_r)
        scenario = Scenario(geometry=geometry, n_cl=n_cl, n_ray=8, trials=20, master_seed=5)
        n_paths = n_cl * 8
        size = montecarlo.batch_size(n_paths, n_t)
        run_trials(scenario, 0, size)  # lazy imports and caches first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_trials(scenario, 0, size)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= size * montecarlo.trial_bytes(n_paths, n_t)[0]

    def test_never_below_one(self):
        assert montecarlo.batch_size(10_000, 32) == 1
        assert montecarlo.batch_size(8, 1024) == 1


class TestRunTrials:
    @pytest.mark.parametrize("size", [1, 2, 3, 25])
    def test_rows_match_single_trials_bit_for_bit(self, size):
        scenario = small_scenario(trials=30, condition="good", snr_db=np.arange(-10.0, 31.0, 5.0))
        physical, designed = run_trials(scenario, 2, 2 + size)
        assert physical.shape == designed.shape == (size, scenario.snr_db.size)
        for row in range(size):
            single_physical, single_designed = run_trial(scenario, 2 + row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)

    def test_safeguard_acts_per_row(self, monkeypatch):
        scenario = small_scenario(trials=6)
        real_design = montecarlo.design_pattern

        def sabotage_odd(geometry, paths):
            # Odd rows get a rank-one pattern that loses at high SNR.
            pattern, allocation, state = real_design(geometry, paths)
            p = pattern.p.copy()
            p[1::2] = 0.0
            p[1::2, 0] = 1.0
            return PatternMatrix(m_hat=pattern.m_hat, p=p), allocation, state

        monkeypatch.setattr(montecarlo, "design_pattern", sabotage_odd)
        physical, unguarded = run_trials(scenario, 0, 6)
        _, guarded = run_trials(scenario, 0, 6, safeguard=True)
        lost = unguarded[:, -1] < physical[:, -1]
        assert lost[1::2].all()
        assert np.array_equal(guarded[lost], physical[lost])
        assert np.array_equal(guarded[~lost], unguarded[~lost])

    @pytest.mark.parametrize("start,stop", [(0, 0), (3, 2), (-1, 2), (0, 5)])
    def test_rejects_bad_ranges(self, start, stop):
        with pytest.raises(InvalidInputError):
            run_trials(small_scenario(trials=4), start, stop)

    def test_single_path_batch_matches_single_trials(self):
        # L = 1: every indicator is zero, so every row takes uniform weights.
        scenario = small_scenario(n_cl=1, n_ray=1, condition="good", trials=5)
        physical, designed = run_trials(scenario, 0, 5)
        assert np.isfinite(designed).all()
        for row in range(5):
            single_physical, single_designed = run_trial(scenario, row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)

    def test_zero_gain_row_matches_its_single_trial(self, monkeypatch):
        # The row with a dead path is allocated alone on its other paths.
        scenario = small_scenario(trials=7)
        real_draw = montecarlo.draw_paths

        def one_dead_path(sc, index):
            paths = real_draw(sc, index)
            if index == 3:
                paths.gains[2] = 0.0
            return paths

        monkeypatch.setattr(montecarlo, "draw_paths", one_dead_path)
        physical, designed = run_trials(scenario, 0, 7)
        for row in range(7):
            single_physical, single_designed = run_trial(scenario, row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)
        # The dead path really changed the design of its row.
        monkeypatch.setattr(montecarlo, "draw_paths", real_draw)
        assert not np.array_equal(designed[3], run_trial(scenario, 3)[1])


def record_pools(monkeypatch):
    """Record the worker count of every pool the campaign builds."""
    real_pool = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def recording(workers, **kwargs):
        sizes.append(workers)
        return real_pool(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return sizes


class TestRunCampaign:
    def test_single_trial_statistics(self):
        scenario = small_scenario(trials=1)
        curves = {c.scheme: c for c in run_campaign(scenario)}
        physical, designed = run_trial(scenario, 0)
        assert_allclose(curves["physical"].mean, physical)
        assert_allclose(curves["pattern"].mean, designed)
        assert_allclose(curves["physical"].std, 0.0)
        assert curves["physical"].trials == 1
        assert curves["ideal"].trials == 0
        assert_allclose(curves["ideal"].std, 0.0)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # Two-trial batches, so that three workers share a pool.
        scenario = small_scenario(trials=6)
        force_batch_size(monkeypatch, scenario, 2)
        serial = {c.scheme: c for c in run_campaign(scenario, workers=1)}
        parallel = {c.scheme: c for c in run_campaign(scenario, workers=3)}
        for scheme in ("physical", "pattern", "ideal"):
            assert np.array_equal(serial[scheme].mean, parallel[scheme].mean)
            assert np.array_equal(serial[scheme].std, parallel[scheme].std)

    @pytest.mark.parametrize("workers,trials", [(2, 13), (3, 13), (2, 21)])
    def test_chunked_workers_match_serial_bits(self, monkeypatch, workers, trials):
        # In one-trial batches, 21 trials on 2 workers go out in chunks of
        # 2 batches with a short last one.
        scenario = small_scenario(trials=trials)
        force_batch_size(monkeypatch, scenario, 1)
        serial = {c.scheme: c for c in run_campaign(scenario, workers=1)}
        parallel = {c.scheme: c for c in run_campaign(scenario, workers=workers)}
        for scheme in ("physical", "pattern"):
            assert parallel[scheme].trials == trials
            assert np.array_equal(serial[scheme].mean, parallel[scheme].mean)
            assert np.array_equal(serial[scheme].std, parallel[scheme].std)

    @pytest.mark.parametrize("size", [1, 2, 3, 25])
    @pytest.mark.parametrize("workers,trials", [(1, 203), (2, 57), (3, 57)])
    def test_per_trial_results_independent_of_batches_and_workers(
        self, monkeypatch, size, workers, trials
    ):
        # 203 trials end in a short batch at sizes 2, 3 and 25; 57 trials
        # go to the pool in chunks of one to four batches, most layouts
        # with a short last batch or a short last chunk.
        scenario = small_scenario(trials=trials, condition="good", snr_db=np.array([0.0, 20.0]))
        expected = single_trial_rows(scenario)
        force_batch_size(monkeypatch, scenario, size)
        outcomes = montecarlo._trial_outcomes(scenario, workers, False)
        assert [outcome[0] for outcome in outcomes] == list(range(trials))
        for (_, physical, designed, error), (want_physical, want_designed) in zip(
            outcomes, expected
        ):
            assert error is None
            assert np.array_equal(physical, want_physical)
            assert np.array_equal(designed, want_designed)

    def test_one_batch_builds_no_pool(self, monkeypatch):
        # Four trials are one batch here, which leaves two of three
        # workers nothing to run, so the batch runs in this process.
        scenario = small_scenario(trials=4)
        assert montecarlo.batch_size(8, 16) >= 4

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        serial = run_campaign(scenario, workers=1)
        for got, want in zip(run_campaign(scenario, workers=3), serial):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.std, want.std)

    def test_pool_has_no_more_workers_than_batches(self, monkeypatch):
        scenario = small_scenario(trials=4)
        force_batch_size(monkeypatch, scenario, 2)
        pin_cores(monkeypatch, 1)
        sizes = record_pools(monkeypatch)
        serial = run_campaign(scenario, workers=1)
        for got, want in zip(run_campaign(scenario, workers=3), serial):
            assert np.array_equal(got.mean, want.mean)
        assert sizes == [2]

    @pytest.mark.parametrize("workers", [2.5, "2", 0, -3, True])
    def test_rejects_bad_worker_counts(self, monkeypatch, workers):
        # Three batches, so that a count taken as given reaches the pool.
        scenario = small_scenario(trials=400)
        force_batch_size(monkeypatch, scenario, 134)
        with pytest.raises(InvalidInputError, match="workers"):
            run_campaign(scenario, workers=workers)

    def test_failure_in_a_batch_fails_only_its_trial(self, monkeypatch):
        scenario = small_scenario(trials=12)
        expected = single_trial_rows(scenario)
        force_batch_size(monkeypatch, scenario, 3)
        real_draw_paths = montecarlo.draw_paths

        def flaky(sc, index):
            if index == 4:
                raise NumericalFailureError("synthetic failure")
            return real_draw_paths(sc, index)

        monkeypatch.setattr(montecarlo, "draw_paths", flaky)
        outcomes = montecarlo._trial_outcomes(scenario, 1, False)
        assert [outcome[0] for outcome in outcomes] == list(range(12))
        assert outcomes[4][1:] == (None, None, "NumericalFailureError: synthetic failure")
        for index, physical, designed, error in outcomes:
            if index != 4:
                assert error is None
                assert np.array_equal(physical, expected[index][0])
                assert np.array_equal(designed, expected[index][1])

    def test_serial_campaign_runs_full_batches_and_one_short_last(self, monkeypatch):
        # L = 8 and n_t = 32 make batches of 12: 400 = 33 x 12 + 4.
        scenario = small_scenario(geometry=ArrayGeometry(n_t=32, n_r=8), trials=400)
        pin_cores(monkeypatch, 1)
        real_run_trials = montecarlo.run_trials
        calls = []

        def recording(sc, start, stop, safeguard=False):
            calls.append((start, stop))
            return real_run_trials(sc, start, stop, safeguard)

        monkeypatch.setattr(montecarlo, "run_trials", recording)
        run_campaign(scenario)
        assert calls == [(start, start + 12) for start in range(0, 396, 12)] + [(396, 400)]

    def test_error_only_in_a_batch_names_the_batch(self, monkeypatch):
        # A bug that needs several trials in lockstep does not show when
        # each trial is rerun alone; the campaign still stops.
        scenario = small_scenario(trials=10)
        force_batch_size(monkeypatch, scenario, 4)
        pin_cores(monkeypatch, 1)
        real_design = montecarlo.design_pattern

        def batch_only_bug(geometry, paths):
            if len(paths.gains) > 1:
                raise TypeError("synthetic batch bug")
            return real_design(geometry, paths)

        monkeypatch.setattr(montecarlo, "design_pattern", batch_only_bug)
        with pytest.raises(
            CampaignError, match=r"trials 0\.\.3 as one batch \(master_seed 99\) raised TypeError"
        ):
            run_campaign(scenario)

    def test_scheme_subset(self):
        scenario = small_scenario(trials=2)
        curves = run_campaign(scenario, schemes=("ideal",))
        assert [c.scheme for c in curves] == ["ideal"]

    def test_curves_nondecreasing_in_snr(self):
        scenario = small_scenario(trials=3, snr_db=np.array([-10.0, 0.0, 10.0, 20.0]))
        for curve in run_campaign(scenario):
            assert np.all(np.diff(curve.mean) >= 0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(InvalidInputError):
            run_campaign(small_scenario(), schemes=("psychic",))

    def test_rejects_empty_schemes(self):
        with pytest.raises(InvalidInputError):
            run_campaign(small_scenario(), schemes=())

    def test_rare_failure_excluded_with_warning(self, monkeypatch):
        scenario = small_scenario(trials=200, snr_db=np.array([10.0]))
        real_draw_paths = montecarlo.draw_paths

        def flaky(sc, index):
            if index == 17:
                raise NumericalFailureError("synthetic failure")
            return real_draw_paths(sc, index)

        monkeypatch.setattr(montecarlo, "draw_paths", flaky)
        with pytest.warns(RuntimeWarning, match="excluded 1 failed"):
            curves = {c.scheme: c for c in run_campaign(scenario, schemes=("physical",))}
        assert curves["physical"].trials == 199

    def test_excess_failures_abort(self, monkeypatch):
        scenario = small_scenario(trials=50, snr_db=np.array([10.0]))
        real_draw_paths = montecarlo.draw_paths

        def flaky(sc, index):
            if index in (3, 11):
                raise NumericalFailureError("synthetic failure")
            return real_draw_paths(sc, index)

        monkeypatch.setattr(montecarlo, "draw_paths", flaky)
        with pytest.raises(CampaignError):
            run_campaign(scenario, schemes=("physical",))

    def test_unexpected_error_aborts_and_names_trial(self, monkeypatch):
        # A bug is not a numerical failure: one TypeError stops the
        # campaign instead of being averaged away with the survivors.
        scenario = small_scenario(trials=200, snr_db=np.array([10.0]))
        real_draw_paths = montecarlo.draw_paths

        def buggy(sc, index):
            if index == 17:
                raise TypeError("synthetic bug")
            return real_draw_paths(sc, index)

        monkeypatch.setattr(montecarlo, "draw_paths", buggy)
        with pytest.raises(CampaignError, match=r"trial 17 \(master_seed 99\) raised TypeError"):
            run_campaign(scenario, schemes=("physical",))

    def test_unexpected_error_aborts_through_the_pool(self, monkeypatch):
        # A ray count that is not an integer, forced past the frozen
        # dataclass and its check at construction, breaks the path draw
        # with a TypeError inside the worker processes; batches of at most
        # two trials need the pool.
        scenario = small_scenario(trials=6)
        force_batch_size(monkeypatch, scenario, 2)
        object.__setattr__(scenario, "n_ray", 2.5)
        with pytest.raises(CampaignError, match=r"trial 0 \(master_seed 99\) raised TypeError"):
            run_campaign(scenario, workers=2)


def assert_rows_match(outcomes, expected):
    assert [outcome[0] for outcome in outcomes] == list(range(len(expected)))
    for (_, physical, designed, error), (want_physical, want_designed) in zip(
        outcomes, expected
    ):
        assert error is None
        assert np.array_equal(physical, want_physical)
        assert np.array_equal(designed, want_designed)


class TestDefaultPool:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_worker_per_usable_core(self, monkeypatch, cores):
        # Five batches of six: the default takes one worker per usable
        # core, and one core runs them in this process.
        scenario = small_scenario(trials=30)
        expected = single_trial_rows(scenario)
        force_batch_size(monkeypatch, scenario, 6)
        pin_cores(monkeypatch, cores)
        sizes = record_pools(monkeypatch)
        assert_rows_match(montecarlo._trial_outcomes(scenario, 1, False), expected)
        assert sizes == ([] if cores == 1 else [cores])

    # One batch builds no pool, however many cores.
    @pytest.mark.parametrize(
        "size, trials, pools", [(2, 30, [3]), (6, 12, [2]), (3, 3, []), (25, 20, [])]
    )
    def test_pool_bounded_by_batches(self, monkeypatch, size, trials, pools):
        scenario = small_scenario(trials=trials)
        force_batch_size(monkeypatch, scenario, size)
        pin_cores(monkeypatch, 3)
        sizes = record_pools(monkeypatch)
        montecarlo._trial_outcomes(scenario, 1, False)
        assert sizes == pools

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize(
        "n_cl, condition, trials", [(4, "good", 37), (10, "ill", 13), (20, "ill", 7)]
    )
    def test_campaign_rows_match_run_trial_bit_for_bit(
        self, monkeypatch, cores, n_cl, condition, trials
    ):
        # The benchmark shapes, L = 8, 80 and 160 at n_t = 32, each in at
        # least three batches with a short last one.
        scenario = Scenario(
            ArrayGeometry(n_t=32, n_r=8),
            n_cl=n_cl,
            n_ray=2 if n_cl == 4 else 8,
            condition=condition,
            trials=trials,
            master_seed=2024,
        )
        expected = single_trial_rows(scenario)
        pin_cores(monkeypatch, cores)
        sizes = record_pools(monkeypatch)
        assert_rows_match(montecarlo._trial_outcomes(scenario, 1, False), expected)
        assert sizes == [cores]

    @pytest.mark.parametrize(
        "workers, size, trials, most",
        [
            # Each other worker starts at most the batch it had checked
            # for before the failure: three workers (the default on three
            # cores) and two, taking one-trial batches in chunks of one
            # and eight, a few of them queued in the workers.
            (1, 1, 60, 2),
            (2, 1, 120, 1),
        ],
    )
    def test_abort_cancels_batches_not_started(
        self, monkeypatch, tmp_path, workers, size, trials, most
    ):
        scenario = small_scenario(trials=trials)
        force_batch_size(monkeypatch, scenario, size)
        pin_cores(monkeypatch, 3)
        real_run_trials = montecarlo.run_trials
        log = tmp_path / "batches.txt"

        def failing_first(sc, start, stop, safeguard=False):
            # Appends from the workers too: they inherit this patch by fork.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"start {start}\n")
            if start == 0:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("fail\n")
                raise TypeError("synthetic bug")
            time.sleep(0.005)
            return real_run_trials(sc, start, stop, safeguard)

        monkeypatch.setattr(montecarlo, "run_trials", failing_first)
        with pytest.raises(CampaignError, match=r"trial 0 \(master_seed 99\) raised TypeError"):
            run_campaign(scenario, workers=workers)
        lines = log.read_text(encoding="utf-8").splitlines()
        after = lines[lines.index("fail") + 1 :]
        assert all(line.startswith("start ") for line in after)
        assert len(after) <= most


class TestCapacityCurve:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            CapacityCurve(
                scheme="physical",
                snr_db=np.array([0.0, 5.0]),
                mean=np.array([1.0]),
                std=np.array([0.0, 0.0]),
                trials=1,
            )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            CapacityCurve(
                scheme="physical",
                snr_db=np.array([0.0]),
                mean=np.array([np.nan]),
                std=np.array([0.0]),
                trials=1,
            )


RUN_TRIALS_ROWS = """
import hashlib
import numpy as np
from prmimo import ArrayGeometry, Scenario, run_trial, run_trials
from prmimo.montecarlo import _trial_outcomes

scenario = Scenario(ArrayGeometry(n_t=32, n_r=8), n_cl=20, trials=3, master_seed=777)
single = [np.concatenate(run_trial(scenario, index)) for index in range(3)]
batch = np.concatenate(run_trials(scenario, 0, 3), axis=1)
campaign = [np.concatenate(outcome[1:3]) for outcome in _trial_outcomes(scenario, 1, False)]
for rows in (single, batch, campaign):
    print(hashlib.sha256(np.asarray(rows).tobytes()).hexdigest())
"""


class TestBlasThreads:
    # In this process, on a pool of two, and on the default pool of
    # three usable cores.
    @pytest.mark.parametrize(
        "workers, cores", [(1, 1), (2, 1), (1, 3)], ids=["1", "2", "1-on-3-cores"]
    )
    def test_campaign_runs_on_one_thread_and_restores_the_count(
        self, workers, cores, monkeypatch, tmp_path
    ):
        lib = numerics._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not present")
        real_run_trials = montecarlo.run_trials
        log = tmp_path / "threads.txt"

        def recording(sc, start, stop, safeguard=False):
            # Appends from the workers too: they inherit this patch by fork.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{lib.scipy_openblas_get_num_threads64_()}\n")
            return real_run_trials(sc, start, stop, safeguard)

        monkeypatch.setattr(montecarlo, "run_trials", recording)
        pin_cores(monkeypatch, cores)
        previous = numerics.set_blas_threads(3)
        try:
            run_campaign(small_scenario(trials=120), workers=workers)
            assert lib.scipy_openblas_get_num_threads64_() == 3
        finally:
            numerics.set_blas_threads(previous)
        seen = log.read_text(encoding="utf-8").split()
        assert len(seen) == 3
        assert set(seen) == {"1"}

    def test_campaign_runs_without_the_library(self, monkeypatch):
        scenario = small_scenario(trials=6)
        expected = run_campaign(scenario)
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        for got, want in zip(run_campaign(scenario), expected):
            assert np.array_equal(got.mean, want.mean)

    def test_run_trials_rows_match_the_campaign_at_any_thread_count(self):
        # At L = 160 the design's sums split by BLAS thread count, so the
        # rows agree only because run_trials runs on one thread.
        hashes = {
            threads: fresh_interpreter(RUN_TRIALS_ROWS, OPENBLAS_NUM_THREADS=threads).split()
            for threads in ("1", "2")
        }
        assert len(hashes["1"]) == 3
        assert hashes["1"] == hashes["2"]
        assert len(set(hashes["1"])) == 1
