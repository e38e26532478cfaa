"""Small construction helpers shared across test modules."""

import os
import subprocess
import sys

import numpy as np
import pytest

import prmimo
import prmimo.sof as sof
from oracles import direct_trace_gram, full_phase_penalty_matrix
from prmimo import (
    PathSet,
    PatternMatrix,
    SofState,
    assemble_pattern_channel,
    draw_paths,
    run_sof,
    run_trials,
)
from prmimo.cfpa import _gram_power


def random_paths(rng, n_paths, max_angle=np.pi / 2):
    """Random path set: unit-variance complex gains, uniform azimuths."""
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2)
    aod = rng.uniform(-max_angle, max_angle, n_paths)
    aoa = rng.uniform(-max_angle, max_angle, n_paths)
    return PathSet(gains=gains, aod=aod, aoa=aoa)


def stack_paths(path_sets):
    """One ``PathSet`` of (T, L) arrays from T path sets of one length L."""
    fields = ("gains", "aod", "aoa")
    return PathSet(*(np.stack([getattr(paths, f) for paths in path_sets]) for f in fields))


def trial_paths(scenario, index):
    """Trial ``index``'s path set: the one row of its ``draw_paths`` batch."""
    batch = draw_paths(scenario, index, index + 1)
    return PathSet(gains=batch.gains[0], aod=batch.aod[0], aoa=batch.aoa[0])


def neutral_pattern(n_t, n_paths):
    """The all-ones pattern: every column all-ones, unit power factors."""
    return PatternMatrix(m_hat=np.ones((n_t, n_paths)), p=np.ones(n_paths))


def physical_channel(geometry, paths):
    """The physical channel: ``assemble_pattern_channel`` at the all-ones pattern.

    Its one (n_t, L) pattern broadcasts against a stacked path set.
    """
    return assemble_pattern_channel(geometry, paths, neutral_pattern(geometry.n_t, len(paths)))


def gram_state(g, m_hat=None):
    """A ``SofState`` holding the Gram matrix ``g`` (or a stack), in index order.

    ``m_hat`` defaults to one all-ones row per path: unit-power columns
    for a one-antenna array, which the state's own checks accept.
    """
    g = np.asarray(g)
    m_hat = np.ones(g.shape[:-2] + (1, g.shape[-1])) if m_hat is None else m_hat
    return SofState(np.broadcast_to(np.arange(g.shape[-1]), g.shape[:-1]), m_hat, g)


def traced_state(geometry, paths, m_hat):
    """The ``SofState`` of the columns ``m_hat`` with a Gram from explicit traces.

    ``paths`` is one path set or a stacked one, with ``m_hat`` stacked alike.
    """
    return gram_state(direct_trace_gram(geometry, paths, m_hat), m_hat)


def one_trial(scenario, index):
    """``(physical, pattern)`` capacities of trial ``index`` run alone."""
    physical, designed = run_trials(scenario, index, index + 1)
    return physical[0], designed[0]


def feasible_m_hat(rng, n_t, n_paths):
    """Strictly positive modification columns with squared norm n_t."""
    raw = rng.uniform(0.1, 1.0, (n_t, n_paths))
    return raw * np.sqrt(n_t / np.sum(raw**2, axis=0))


def rescaled_to_budget(geometry, gains, g, p):
    """Factors ``p`` times the one scale that meets the budget ``n_t*n_r``.

    The pattern channel's power is read off the Gram matrix,
    ``Re(c^H G c)`` with ``c = gains * p``, as ``allocate_power`` does.
    """
    return p * np.sqrt(geometry.n_t * geometry.n_r / _gram_power(g, gains * p))


def assert_sof_bits_match_full_phase_penalty(geometry, paths):
    """``run_sof`` gives the same bytes as with ``full_phase_penalty_matrix``.

    Compares the order, the columns and the Gram matrix (which determines
    the indicator) with ``tobytes``, so a moved bit or a changed zero sign
    fails.
    """
    state = run_sof(geometry, paths)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sof, "_penalty_matrix", full_phase_penalty_matrix)
        expected = run_sof(geometry, paths)
    for name in ("order", "m_hat"):
        assert getattr(state, name).tobytes() == getattr(expected, name).tobytes(), name
    assert state.gram.tobytes() == expected.gram.tobytes()


def fresh_interpreter(code, *args, **env):
    """Run ``python -c code args`` with this prmimo importable; its stdout.

    ``env`` entries are added to the environment of the new interpreter.
    """
    src = os.path.dirname(os.path.dirname(prmimo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
