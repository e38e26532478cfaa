import concurrent.futures
import dataclasses
import pickle
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import fresh_interpreter, one_trial, physical_channel, trial_paths
from oracles import steering_matrix
import prmimo.montecarlo as montecarlo
import prmimo.numerics as numerics
from prmimo import (
    ArrayGeometry,
    CampaignError,
    CapacityCurve,
    InvalidInputError,
    NumericalFailureError,
    PathSet,
    PatternMatrix,
    Scenario,
    assemble_pattern_channel,
    capacity,
    design_pattern,
    ideal_capacity,
    run_campaign,
    run_trials,
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

    @pytest.mark.parametrize("snr", [-1.0, 0.0, np.nan, np.inf, [1.0, -1.0]])
    def test_rejects_snr_that_capacity_rejects(self, snr):
        geom = ArrayGeometry(n_t=32, n_r=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="snr must be positive and finite"):
                ideal_capacity(geom, snr)
        with pytest.raises(InvalidInputError, match="snr must be positive and finite"):
            capacity(np.eye(geom.n_r, geom.n_t), snr)


class TestOneTrial:
    def test_deterministic(self):
        scenario = small_scenario()
        first = one_trial(scenario, 1)
        second = one_trial(scenario, 1)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_single_path_is_rescaled_physical(self):
        scenario = small_scenario(condition="good", n_cl=1, n_ray=1, angle_spread=0.0)
        physical, designed = one_trial(scenario, 0)
        paths = trial_paths(scenario, 0)
        geom = scenario.geometry
        # One path: the designed channel is the physical one rescaled to
        # the full power budget.
        h = physical_channel(geom, paths)
        scale = np.sqrt(geom.n_t * geom.n_r) / abs(paths.gains[0])
        expected = [capacity(h * scale, s) for s in 10.0 ** (scenario.snr_db / 10.0)]
        assert_allclose(designed, expected, rtol=1e-9)
        assert_allclose(physical, [capacity(h, s) for s in 10.0 ** (scenario.snr_db / 10.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidInputError):
            one_trial(small_scenario(), 4)


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
    return [one_trial(scenario, index) for index in range(scenario.trials)]


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
            single_physical, single_designed = one_trial(scenario, 2 + row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)

    def test_one_draw_and_one_path_set_per_batch(self, monkeypatch):
        # The batch's paths come from one draw_paths call as one checked
        # PathSet; no trial builds a path set of its own.
        scenario = small_scenario(trials=6)
        real_draw, real_check = montecarlo.draw_paths, PathSet.__post_init__
        draws, checks = [], []

        def recording_draw(sc, start, stop):
            draws.append((start, stop))
            return real_draw(sc, start, stop)

        def counting_check(paths):
            checks.append(paths.gains.shape)
            real_check(paths)

        monkeypatch.setattr(montecarlo, "draw_paths", recording_draw)
        monkeypatch.setattr(PathSet, "__post_init__", counting_check)
        run_trials(scenario, 1, 6)
        assert draws == [(1, 6)]
        assert checks == [(5, 8)]

    def test_one_capacity_sweep_per_batch(self, monkeypatch):
        # The batch's physical and designed channels go to one capacity
        # call as one (2, T, n_r, n_t) stack.
        scenario = small_scenario(trials=6)
        real_capacity = montecarlo.capacity
        shapes = []

        def recording(h, snr):
            shapes.append(np.shape(h))
            return real_capacity(h, snr)

        monkeypatch.setattr(montecarlo, "capacity", recording)
        run_trials(scenario, 1, 6)
        assert shapes == [(2, 5, 4, 16)]

    def test_one_assembly_per_batch(self, monkeypatch):
        # The neutral and the designed pattern go to one assembly call as
        # one (2, T, n_t, L) pattern stack over the batch's (T, L) paths.
        scenario = small_scenario(trials=6)
        real_assemble = montecarlo.assemble_pattern_channel
        shapes = []

        def recording(geometry, paths, pattern):
            shapes.append((pattern.m.shape, paths.gains.shape))
            return real_assemble(geometry, paths, pattern)

        monkeypatch.setattr(montecarlo, "assemble_pattern_channel", recording)
        run_trials(scenario, 1, 6)
        assert shapes == [((2, 5, 16, 8), (5, 8))]

    @pytest.mark.parametrize(
        "n_cl, n_ray, condition, trials", [(4, 2, "good", 12), (10, 8, "ill", 6), (20, 8, "ill", 3)]
    )
    def test_one_assembly_gives_the_bits_of_one_assembly_per_channel(
        self, n_cl, n_ray, condition, trials
    ):
        # The benchmark shapes at their batch sizes: the stacked assembly's
        # channels against the physical and the designed assembly alone,
        # and the physical one against the product A_R diag(g) A_T^H.
        scenario = Scenario(
            ArrayGeometry(n_t=32, n_r=8),
            n_cl=n_cl,
            n_ray=n_ray,
            condition=condition,
            trials=trials,
            master_seed=7,
        )
        geometry = scenario.geometry
        with numerics.one_blas_thread():
            paths = montecarlo.draw_paths(scenario, 0, trials)
            pattern = design_pattern(geometry, paths)[0]
            both = PatternMatrix(
                m_hat=np.stack([np.ones_like(pattern.m_hat), pattern.m_hat]),
                p=np.stack([np.ones_like(pattern.p), pattern.p]),
            )
            physical, designed = assemble_pattern_channel(geometry, paths, both)
            assert physical.tobytes() == physical_channel(geometry, paths).tobytes()
            a_r = steering_matrix(geometry.n_r, geometry.spacing_r, paths.aoa)
            a_t = steering_matrix(geometry.n_t, geometry.spacing_t, paths.aod)
            product = (a_r * paths.gains[..., None, :]) @ a_t.conj().swapaxes(-1, -2)
            assert physical.tobytes() == product.tobytes()
            alone = assemble_pattern_channel(geometry, paths, pattern)
            assert designed.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "n_cl, n_ray, condition, trials", [(4, 2, "good", 12), (10, 8, "ill", 6), (20, 8, "ill", 3)]
    )
    def test_one_sweep_gives_the_bits_of_one_sweep_per_channel(
        self, n_cl, n_ray, condition, trials
    ):
        # The benchmark shapes at their batch sizes: the stacked sweep's
        # rows against a capacity call on each channel stack alone.
        scenario = Scenario(
            ArrayGeometry(n_t=32, n_r=8),
            n_cl=n_cl,
            n_ray=n_ray,
            condition=condition,
            snr_db=np.arange(-10.0, 31.0),
            trials=trials,
            master_seed=7,
        )
        physical, designed = run_trials(scenario, 0, trials)
        with numerics.one_blas_thread():
            paths = montecarlo.draw_paths(scenario, 0, trials)
            pattern = design_pattern(scenario.geometry, paths)[0]
            snr = montecarlo._linear(scenario.snr_db)
            alone = capacity(physical_channel(scenario.geometry, paths), snr)
            assert np.array_equal(physical, alone)
            channel = assemble_pattern_channel(scenario.geometry, paths, pattern)
            assert np.array_equal(designed, capacity(channel, snr))

    @pytest.mark.parametrize("start,stop", [(0, 0), (3, 2), (-1, 2), (0, 5)])
    def test_rejects_bad_ranges(self, start, stop):
        with pytest.raises(InvalidInputError):
            run_trials(small_scenario(trials=4), start, stop)

    @pytest.mark.parametrize(
        "start,stop,name",
        [(1.5, 3, "start"), (0, 3.0, "stop"), (False, True, "start"), (0, True, "stop")],
    )
    def test_rejects_non_integer_bounds(self, start, stop, name):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            run_trials(small_scenario(trials=4), start, stop)

    def test_numpy_integer_bounds_give_the_same_rows(self):
        scenario = small_scenario(trials=4)
        physical, designed = run_trials(scenario, np.int64(1), np.int32(3))
        expected = run_trials(scenario, 1, 3)
        assert np.array_equal(physical, expected[0])
        assert np.array_equal(designed, expected[1])

    def test_single_path_batch_matches_single_trials(self):
        # L = 1: every indicator is zero, so every row takes uniform weights.
        scenario = small_scenario(n_cl=1, n_ray=1, condition="good", trials=5)
        physical, designed = run_trials(scenario, 0, 5)
        assert np.isfinite(designed).all()
        for row in range(5):
            single_physical, single_designed = one_trial(scenario, row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)

    def test_zero_gain_row_matches_its_single_trial(self, monkeypatch):
        # The row with a dead path is allocated alone on its other paths.
        scenario = small_scenario(trials=7)
        real_draw = montecarlo.draw_paths

        def one_dead_path(sc, start, stop):
            paths = real_draw(sc, start, stop)
            if start <= 3 < stop:
                paths.gains[3 - start, 2] = 0.0
            return paths

        monkeypatch.setattr(montecarlo, "draw_paths", one_dead_path)
        physical, designed = run_trials(scenario, 0, 7)
        for row in range(7):
            single_physical, single_designed = one_trial(scenario, row)
            assert np.array_equal(physical[row], single_physical)
            assert np.array_equal(designed[row], single_designed)
        # The dead path really changed the design of its row.
        monkeypatch.setattr(montecarlo, "draw_paths", real_draw)
        assert not np.array_equal(designed[3], one_trial(scenario, 3)[1])


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
        physical, designed = one_trial(scenario, 0)
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
        outcomes = montecarlo._trial_outcomes(scenario, workers)
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

        def flaky(sc, start, stop):
            if start <= 4 < stop:
                raise NumericalFailureError("synthetic failure")
            return real_draw_paths(sc, start, stop)

        monkeypatch.setattr(montecarlo, "draw_paths", flaky)
        outcomes = montecarlo._trial_outcomes(scenario, 1)
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

        def recording(sc, start, stop):
            calls.append((start, stop))
            return real_run_trials(sc, start, stop)

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

    def test_safeguard_floors_at_physical(self, monkeypatch):
        scenario = small_scenario(trials=1)
        pin_cores(monkeypatch, 1)

        def sabotaged_design(geometry, paths):
            # Put all power on one path: a rank-one channel that loses to
            # the physical baseline at high SNR.
            p = np.zeros(paths.gains.shape)
            p[:, 0] = 1.0
            m_hat = np.ones((len(p), geometry.n_t, len(paths)))
            return PatternMatrix(m_hat=m_hat, p=p), None

        monkeypatch.setattr(montecarlo, "design_pattern", sabotaged_design)
        physical, unguarded = run_campaign(scenario, ("physical", "pattern"), safeguard=False)
        assert unguarded.mean[-1] < physical.mean[-1]
        physical2, guarded = run_campaign(scenario, ("physical", "pattern"), safeguard=True)
        assert np.array_equal(guarded.mean, physical2.mean)
        assert np.array_equal(guarded.std, physical2.std)

    def test_safeguard_acts_per_row(self, monkeypatch):
        scenario = small_scenario(trials=6)
        pin_cores(monkeypatch, 1)
        real_design = montecarlo.design_pattern

        def sabotage_odd(geometry, paths):
            # Odd rows get a rank-one pattern that loses at high SNR.
            pattern, state = real_design(geometry, paths)
            p = pattern.p.copy()
            p[1::2] = 0.0
            p[1::2, 0] = 1.0
            return PatternMatrix(m_hat=pattern.m_hat, p=p), state

        monkeypatch.setattr(montecarlo, "design_pattern", sabotage_odd)
        physical, unguarded = run_trials(scenario, 0, 6)
        lost = unguarded[:, -1] < physical[:, -1]
        assert lost[1::2].all()
        # The rows the guarded campaign reduces: the physical row where the
        # design lost, its own row elsewhere.
        guarded = unguarded.copy()
        guarded[lost] = physical[lost]
        pattern = run_campaign(scenario, ("pattern",), safeguard=True)[0]
        assert np.array_equal(pattern.mean, guarded.mean(axis=0))
        assert np.array_equal(pattern.std, guarded.std(axis=0))

    @pytest.mark.parametrize("workers, cores", [(1, 1), (2, 2)], ids=["in-process", "pooled"])
    def test_safeguard_floors_the_run_trials_rows(self, monkeypatch, workers, cores):
        # Four clusters of one ray spread 15 degrees: the design loses at
        # 20 dB in some trials but not all. Batches of four trials make
        # three, so two workers build a pool.
        scenario = small_scenario(
            condition="good", n_ray=1, angle_spread=np.deg2rad(15.0),
            snr_db=np.array([0.0, 20.0, 10.0]), trials=12,
        )
        force_batch_size(monkeypatch, scenario, 4)
        pin_cores(monkeypatch, cores)
        physical, designed = run_trials(scenario, 0, 12)
        lost = designed[:, 1] < physical[:, 1]
        assert lost.any() and not lost.all()
        floored = np.where(lost[:, None], physical, designed)
        pattern = run_campaign(scenario, ("pattern",), workers=workers, safeguard=True)[0]
        assert np.array_equal(pattern.mean, floored.mean(axis=0))
        assert np.array_equal(pattern.std, floored.std(axis=0))

    def test_safeguard_takes_numpy_bools(self, monkeypatch):
        scenario = small_scenario(trials=2)
        pin_cores(monkeypatch, 1)
        for flag in (False, True):
            want = run_campaign(scenario, safeguard=flag)
            for got, expected in zip(run_campaign(scenario, safeguard=np.bool_(flag)), want):
                assert np.array_equal(got.mean, expected.mean)

    def test_scheme_subset(self, monkeypatch):
        # The analytic ideal curve needs no trial, so an ideal-only campaign runs none.
        def no_trials(scenario, workers):
            raise AssertionError("an ideal-only campaign ran trials")

        monkeypatch.setattr(montecarlo, "_trial_outcomes", no_trials)
        scenario = small_scenario(trials=2)
        (curve,) = run_campaign(scenario, schemes=("ideal",))
        assert curve.scheme == "ideal" and curve.trials == 0
        want = ideal_capacity(scenario.geometry, 10.0 ** (scenario.snr_db / 10.0))
        assert np.array_equal(curve.mean, want)
        assert np.array_equal(curve.std, [0.0, 0.0])

    @pytest.mark.parametrize(
        "schemes, order",
        [
            (("ideal", "pattern", "physical"), ["physical", "pattern", "ideal"]),
            (("ideal", "pattern"), ["pattern", "ideal"]),
            (("pattern", "physical"), ["physical", "pattern"]),
        ],
    )
    def test_curves_come_in_schemes_order(self, schemes, order):
        curves = run_campaign(small_scenario(trials=2), schemes=schemes)
        assert [curve.scheme for curve in curves] == order

    def test_curves_nondecreasing_in_snr(self):
        scenario = small_scenario(trials=3, snr_db=np.array([-10.0, 0.0, 10.0, 20.0]))
        for curve in run_campaign(scenario):
            assert np.all(np.diff(curve.mean) >= 0)

    def test_rare_failure_excluded_with_warning(self, monkeypatch):
        # Up to 1% of the trials may fail: 2 of 200 are kept, as 1 is.
        scenario = small_scenario(trials=200, snr_db=np.array([10.0]))
        real_draw_paths = montecarlo.draw_paths
        for failing in ((17,), (17, 101)):

            def flaky(sc, start, stop, failing=failing):
                if any(start <= i < stop for i in failing):
                    raise NumericalFailureError("synthetic failure")
                return real_draw_paths(sc, start, stop)

            monkeypatch.setattr(montecarlo, "draw_paths", flaky)
            with pytest.warns(RuntimeWarning, match=f"excluded {len(failing)} failed"):
                curves = {c.scheme: c for c in run_campaign(scenario, schemes=("physical",))}
            assert curves["physical"].trials == 200 - len(failing)

    def test_excess_failures_abort(self, monkeypatch):
        # More than 1% of the trials: 2 of 50, and 3 of 200.
        real_draw_paths = montecarlo.draw_paths
        for trials, failing in ((50, (3, 11)), (200, (3, 11, 150))):
            scenario = small_scenario(trials=trials, snr_db=np.array([10.0]))

            def flaky(sc, start, stop, failing=failing):
                if any(start <= i < stop for i in failing):
                    raise NumericalFailureError("synthetic failure")
                return real_draw_paths(sc, start, stop)

            monkeypatch.setattr(montecarlo, "draw_paths", flaky)
            with pytest.raises(CampaignError, match=f"{len(failing)} of {trials} trials failed"):
                run_campaign(scenario, schemes=("physical",))

    def test_unexpected_error_aborts_and_names_trial(self, monkeypatch):
        # A bug is not a numerical failure: one TypeError stops the
        # campaign instead of being averaged away with the survivors.
        scenario = small_scenario(trials=200, snr_db=np.array([10.0]))
        real_draw_paths = montecarlo.draw_paths

        def buggy(sc, start, stop):
            if start <= 17 < stop:
                raise TypeError("synthetic bug")
            return real_draw_paths(sc, start, stop)

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

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_invalid_input_in_a_trial_aborts_and_names_it(self, monkeypatch, workers):
        # Only a NumericalFailureError is a failed trial. The library's own
        # checks failing inside a trial (a design column of the wrong norm,
        # say) are a bug: the campaign stops at trial 17 instead of
        # averaging the other 199 trials with a warning. Batches of four
        # make fifty, so two workers build a pool, whose processes inherit
        # the patch by fork.
        scenario = small_scenario(trials=200, snr_db=np.array([10.0]))
        force_batch_size(monkeypatch, scenario, 4)
        pin_cores(monkeypatch, 1)
        marked = montecarlo.draw_paths(scenario, 17, 18).gains[0, 0]
        real_design = montecarlo.design_pattern

        def buggy(geometry, paths):
            if np.any(paths.gains[..., 0] == marked):
                raise InvalidInputError("synthetic bug")
            return real_design(geometry, paths)

        monkeypatch.setattr(montecarlo, "design_pattern", buggy)
        with pytest.raises(
            CampaignError,
            match=r"^trial 17 \(master_seed 99\) raised InvalidInputError: synthetic bug$",
        ):
            run_campaign(scenario, workers=workers)

    def test_pool_names_the_first_failing_trial_whatever_the_schedule(self, monkeypatch):
        # Every batch fails, as above. Whichever worker fails first, each
        # batch before its own still runs, so the campaign always names
        # trial 0, as a run in this process does.
        scenario = small_scenario(trials=6)
        force_batch_size(monkeypatch, scenario, 2)
        object.__setattr__(scenario, "n_ray", 2.5)
        for _ in range(20):
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
        assert_rows_match(montecarlo._trial_outcomes(scenario, 1), expected)
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
        montecarlo._trial_outcomes(scenario, 1)
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
        assert_rows_match(montecarlo._trial_outcomes(scenario, 1), expected)
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

        def failing_first(sc, start, stop):
            # Appends from the workers too: they inherit this patch by fork.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"start {start}\n")
            if start == 0:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("fail\n")
                raise TypeError("synthetic bug")
            time.sleep(0.005)
            return real_run_trials(sc, start, stop)

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
from prmimo import ArrayGeometry, Scenario, run_trials
from prmimo.montecarlo import _trial_outcomes

scenario = Scenario(ArrayGeometry(n_t=32, n_r=8), n_cl=20, trials=3, master_seed=777)
single = [np.concatenate(run_trials(scenario, i, i + 1), axis=1)[0] for i in range(3)]
batch = np.concatenate(run_trials(scenario, 0, 3), axis=1)
campaign = [np.concatenate(outcome[1:3]) for outcome in _trial_outcomes(scenario, 1)]
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

        def recording(sc, start, stop):
            # Appends from the workers too: they inherit this patch by fork.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{lib.scipy_openblas_get_num_threads64_()}\n")
            return real_run_trials(sc, start, stop)

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
