"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with its headline numbers, so the
suite doubles as a checklist: run with ``pytest tests/test_acceptance.py
-v -s``. Trial counts can be reduced for constrained environments via
``PRMIMO_ACCEPT_TRIALS`` and ``PRMIMO_ACCEPT_GAP_TRIALS``; the
statistical checks themselves are unchanged.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import kept_allocation_factors, modified_subchannels, singular_values
from prmimo import (
    ArrayGeometry,
    PatternMatrix,
    Scenario,
    assemble_pattern_channel,
    assemble_physical,
    capacity,
    design_pattern,
    draw_paths,
    ideal_capacity,
    logdet_capacity_kernel,
    run_campaign,
    run_sof,
    run_trial,
    solve_modification_vector,
    subchannel_gram,
)
from prmimo.cfpa import allocate_power
from prmimo.cli import main

MAIN_TRIALS = int(os.environ.get("PRMIMO_ACCEPT_TRIALS", "1000"))
GAP_TRIALS = int(os.environ.get("PRMIMO_ACCEPT_GAP_TRIALS", "500"))
MASTER_SEED = 1234

GEOMETRY = ArrayGeometry(n_t=32, n_r=8)
SNR_DB = np.array([-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0])


def reference_scenario(**overrides):
    settings = dict(
        geometry=GEOMETRY,
        n_cl=10,
        n_ray=8,
        condition="ill",
        angle_spread=np.deg2rad(3.0),
        snr_db=SNR_DB,
        trials=MAIN_TRIALS,
        master_seed=MASTER_SEED,
    )
    settings.update(overrides)
    return Scenario(**settings)


def report(number, name, passed, detail=""):
    line = f"acceptance {number:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def reference_run():
    """One pass over the reference ill-conditioned campaign.

    Collects per-trial capacities for both schemes plus the design
    feasibility statistics, mirroring the per-trial pipeline exactly.
    """
    scenario = reference_scenario()
    snr = 10.0 ** (scenario.snr_db / 10.0)
    trials = scenario.trials
    physical = np.empty((trials, snr.size))
    designed = np.empty((trials, snr.size))
    norm_dev = np.empty(trials)
    min_entry = np.empty(trials)
    order_ok = np.empty(trials, dtype=bool)
    for index in range(trials):
        paths = draw_paths(scenario, index)
        h = assemble_physical(scenario.geometry, paths)
        physical[index] = [capacity(h, s) for s in snr]
        pattern, _, state = design_pattern(scenario.geometry, paths)
        h_pat = assemble_pattern_channel(scenario.geometry, paths, pattern)
        designed[index] = [capacity(h_pat, s) for s in snr]
        norms = np.sum(state.m_hat**2, axis=0)
        norm_dev[index] = np.max(np.abs(norms - scenario.geometry.n_t))
        min_entry[index] = min(state.m_hat.min(), pattern.m.min(), pattern.p.min())
        order_ok[index] = sorted(state.order.tolist()) == list(range(len(paths)))
    return SimpleNamespace(
        scenario=scenario,
        snr=snr,
        physical=physical,
        designed=designed,
        norm_dev=norm_dev,
        min_entry=min_entry,
        order_ok=order_ok,
    )


def test_01_ideal_bound_analytic_oracle():
    rho = 10.0
    expected = GEOMETRY.n_r * np.log2(1.0 + rho * GEOMETRY.n_t / GEOMETRY.n_r)
    h = np.sqrt(GEOMETRY.n_t) * np.eye(GEOMETRY.n_r, GEOMETRY.n_t)
    via_gram = logdet_capacity_kernel(h @ h.conj().T, rho / GEOMETRY.n_r)
    via_svd = float(np.sum(np.log2(1.0 + (rho / GEOMETRY.n_r) * singular_values(h) ** 2)))
    via_analytic = ideal_capacity(GEOMETRY, rho)
    worst = max(abs(v - expected) for v in (via_gram, via_svd, via_analytic))
    report(
        1,
        "ideal-bound analytic oracle",
        worst <= 1e-9 * expected,
        f"8*log2(41)={expected:.6f}, worst dev {worst:.2e}",
    )


def test_02_capacity_formula_identity():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(200):
        n_r = int(rng.integers(1, 9))
        n_t = int(rng.integers(n_r, 33))
        h = (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / np.sqrt(2)
        rho = 10.0 ** rng.uniform(-1.0, 2.0)
        via_gram = capacity(h, rho)
        via_svd = float(np.sum(np.log2(1.0 + (rho / n_r) * singular_values(h) ** 2)))
        worst = max(worst, abs(via_gram - via_svd) / max(1.0, abs(via_svd)))
    report(2, "capacity formula identity", worst <= 1e-9, f"worst rel dev {worst:.2e}")


def test_03_gram_closed_form_oracle():
    rng = np.random.default_rng(2003)
    worst = 0.0
    for _ in range(100):
        n_r = int(rng.integers(1, 5))
        n_t = int(rng.integers(max(2, n_r), 9))
        n_paths = int(rng.integers(2, 7))
        geom = ArrayGeometry(n_t=n_t, n_r=n_r)
        gains = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
        aod = rng.uniform(-np.pi / 2, np.pi / 2, n_paths)
        aoa = rng.uniform(-np.pi / 2, np.pi / 2, n_paths)
        from prmimo import PathSet

        paths = PathSet(gains=gains, aod=aod, aoa=aoa)
        raw = rng.uniform(0.05, 1.0, (n_t, n_paths))
        m_hat = raw * np.sqrt(n_t / np.sum(raw**2, axis=0))
        gram = subchannel_gram(geom, paths, m_hat)
        subs = modified_subchannels(geom, paths, m_hat)
        direct = np.einsum("irt,jrt->ij", subs.conj(), subs)
        worst = max(worst, float(np.max(np.abs(gram.g - direct))))
    report(3, "gram closed-form oracle", worst <= 1e-12, f"worst abs dev {worst:.2e}")


def test_04_eigen_subproblem_grid_oracle():
    step = np.deg2rad(2.0)
    angles = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, 2.0))
    tt, pp = np.meshgrid(angles, angles, indexing="ij")
    points = np.sqrt(3.0) * np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    rng = np.random.default_rng(2004)
    gaps = []
    ok = True
    for _ in range(50):
        raw = rng.standard_normal((3, 3))
        b = raw @ raw.T
        solution = solve_modification_vector(b, 3)
        objective = float(solution @ b @ solution)
        grid_min = float(np.einsum("ij,jk,ik->i", points, b, points).min())
        # Lipschitz slack: |grad| <= 2*lam_max*sqrt(3) on the sphere, grid
        # points are within sqrt(3)*step*sqrt(2)/2 of any feasible point.
        slack = np.linalg.eigvalsh(b)[-1] * 3.0 * np.sqrt(2.0) * step
        ok = ok and objective >= grid_min - slack
        gaps.append(objective - grid_min)
    mean_gap = float(np.mean(gaps))
    report(
        4,
        "eigen-subproblem grid oracle",
        ok,
        f"mean optimality gap {mean_gap:.3e}, max {max(gaps):.3e}",
    )


def test_05_channel_power_normalization():
    scenario = reference_scenario(trials=10_000)
    total = 0.0
    for index in range(scenario.trials):
        paths = draw_paths(scenario, index)
        total += float(np.linalg.norm(assemble_physical(scenario.geometry, paths)) ** 2)
    mean_power = total / scenario.trials
    budget = scenario.geometry.n_t * scenario.geometry.n_r
    deviation = abs(mean_power - budget) / budget
    report(
        5,
        "channel power normalization",
        deviation <= 0.02,
        f"mean power {mean_power:.2f} vs {budget}, rel dev {deviation:.4f}",
    )


def test_06_power_constraint_audit():
    scenario = reference_scenario(trials=100)
    budget = scenario.geometry.n_t * scenario.geometry.n_r
    worst_on = 0.0
    off_ratios = []
    for index in range(scenario.trials):
        paths = draw_paths(scenario, index)
        state = run_sof(scenario.geometry, paths)
        pattern, _ = allocate_power(scenario.geometry, paths, state.m_hat, state.gram)
        # Renormalization on: the pattern; off: the paper's closed-form factors.
        closed = kept_allocation_factors(
            scenario.geometry, paths.gains, state.gram.g, state.gram.indicator
        )
        literal = PatternMatrix(m_hat=state.m_hat, p=closed)
        for renormalize, chosen in ((True, pattern), (False, literal)):
            h = assemble_pattern_channel(scenario.geometry, paths, chosen)
            power = float(np.sum(np.abs(h) ** 2))
            if renormalize:
                worst_on = max(worst_on, abs(power - budget) / budget)
            else:
                off_ratios.append(power / budget)
    off_ratios = np.array(off_ratios)
    report(
        6,
        "power-constraint audit",
        worst_on <= 1e-9,
        f"renorm ON worst rel dev {worst_on:.2e}; OFF power/budget "
        f"min {off_ratios.min():.3f} mean {off_ratios.mean():.3f} max {off_ratios.max():.3f}",
    )


def test_07_mean_capacity_improvement(reference_run):
    run = reference_run
    diff = run.designed - run.physical
    n = diff.shape[0]
    mean = diff.mean(axis=0)
    sem = diff.std(axis=0, ddof=1) / np.sqrt(n)
    lower = mean - 1.645 * sem  # one-sided 95% confidence bound
    ideal = ideal_capacity(run.scenario.geometry, run.snr)
    below_ideal = np.all(run.designed.mean(axis=0) <= ideal + 1e-9)
    passed = bool(np.all(mean > 0) and np.all(lower > 0) and below_ideal)
    detail = ", ".join(
        f"{int(s)}dB:+{m:.3f}(lo {l:.3f})" for s, m, l in zip(run.scenario.snr_db, mean, lower)
    )
    report(7, f"capacity improvement over {n} trials", passed, detail)


def test_07b_reference_run_matches_run_trial(reference_run):
    # The fixture mirrors the trial pipeline; spot-check the equivalence.
    run = reference_run
    last = run.scenario.trials - 1
    for index in {0, min(7, last), min(23, last)}:
        physical, designed = run_trial(run.scenario, index)
        assert np.array_equal(physical, run.physical[index])
        assert np.array_equal(designed, run.designed[index])


def test_08_gap_shrinks_with_more_clusters():
    gaps = {}
    for n_cl in (10, 20):
        scenario = reference_scenario(n_cl=n_cl, snr_db=np.array([10.0]), trials=GAP_TRIALS)
        curves = {c.scheme: c for c in run_campaign(scenario, workers=1)}
        ideal = ideal_capacity(scenario.geometry, 10.0)
        gaps[n_cl] = (ideal - curves["pattern"].mean[0]) / ideal
    report(
        8,
        "normalized gap shrinks with clusters",
        gaps[20] < gaps[10],
        f"gap ncl=10: {gaps[10]:.4f}, ncl=20: {gaps[20]:.4f}",
    )


def test_09_campaign_determinism_across_workers(tmp_path):
    args = [
        "--trials", "30", "--snr-db", "-10:10:20", "--seed", "4242",
        "--ncl", "6", "--nray", "4",
    ]
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(args + ["--workers", "1", "--out", str(out_serial)]) == 0
    assert main(args + ["--workers", "3", "--out", str(out_parallel)]) == 0
    serial_bytes = (out_serial / "capacity.csv").read_bytes()
    parallel_bytes = (out_parallel / "capacity.csv").read_bytes()
    report(
        9,
        "byte-identical CSV across worker counts",
        serial_bytes == parallel_bytes,
        f"{len(serial_bytes)} bytes",
    )


def test_10_design_feasibility_invariants(reference_run):
    run = reference_run
    worst_norm = float(run.norm_dev.max())
    min_entry = float(run.min_entry.min())
    all_orders = bool(run.order_ok.all())
    passed = worst_norm <= 1e-10 and min_entry >= 0.0 and all_orders
    report(
        10,
        "design feasibility invariants",
        passed,
        f"worst column-norm dev {worst_norm:.2e}, min entry {min_entry:.2e}, "
        f"orders valid {all_orders}",
    )
