"""Small construction helpers shared across test modules."""

import os
import subprocess
import sys

import numpy as np
import pytest

import prmimo
import prmimo.sof as sof
from oracles import full_phase_penalty_matrix
from prmimo import PathSet, PatternMatrix, run_sof
from prmimo.cfpa import _gram_power


def random_paths(rng, n_paths, max_angle=np.pi / 2):
    """Random path set: unit-variance complex gains, uniform azimuths."""
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2)
    aod = rng.uniform(-max_angle, max_angle, n_paths)
    aoa = rng.uniform(-max_angle, max_angle, n_paths)
    return PathSet(gains=gains, aod=aod, aoa=aoa)


def neutral_pattern(n_t, n_paths):
    """The all-ones pattern: every column all-ones, unit power factors."""
    return PatternMatrix(m_hat=np.ones((n_t, n_paths)), p=np.ones(n_paths))


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

    Compares the order, the columns, the Gram matrix and the indicator
    with ``tobytes``, so a moved bit or a changed zero sign fails.
    """
    state = run_sof(geometry, paths)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sof, "_penalty_matrix", full_phase_penalty_matrix)
        expected = run_sof(geometry, paths)
    for name in ("order", "m_hat"):
        assert getattr(state, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in ("g", "indicator"):
        assert getattr(state.gram, name).tobytes() == getattr(expected.gram, name).tobytes(), name


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
