"""Byte guard on the pinned benchmark references.

Each entry of ``bench/reference.json`` holds a flag set and the exact
``capacity.csv`` it produced. Running the same flags through the CLI must
reproduce that text byte for byte, serial and with workers, so any change
in the arithmetic that feeds the design eigensolver shows up here. The
BLAS thread count must not change the bytes either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prmimo.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"
PINNED = json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_reproduces_pinned_csv(name, tmp_path):
    entry = PINNED[name]
    assert main(entry["flags"].split() + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "capacity.csv").read_text(encoding="utf-8") == entry["csv"]


@pytest.mark.parametrize(
    "threads",
    [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, {}],
    ids=["one-blas-thread", "environment-as-is"],
)
def test_csv_independent_of_blas_threads(threads, tmp_path):
    # A fresh interpreter per case: BLAS reads its thread count at load.
    entry = PINNED["sweep_w2"]
    env = dict(os.environ, **threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "prmimo.cli", *entry["flags"].split(), "--out", str(tmp_path)]
    subprocess.run(command, env=env, check=True, timeout=120)
    assert (tmp_path / "capacity.csv").read_text(encoding="utf-8") == entry["csv"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dense_csv_independent_of_blas_threads(threads, tmp_path):
    # L = 160, whose design states once depended on the thread count.
    entry = PINNED["dense_ncl20"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "prmimo.cli", *entry["flags"].split(), "--out", str(tmp_path)]
    subprocess.run(command, env=env, check=True, timeout=120)
    assert (tmp_path / "capacity.csv").read_text(encoding="utf-8") == entry["csv"]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(set(PINNED) - {"dense_ncl20"}))
def test_every_pinned_csv_independent_of_blas_threads(name, threads, tmp_path):
    # dense_ncl20 runs under these counts in the test above.
    entry = PINNED[name]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "prmimo.cli", *entry["flags"].split(), "--out", str(tmp_path)]
    subprocess.run(command, env=env, check=True, timeout=120)
    assert (tmp_path / "capacity.csv").read_text(encoding="utf-8") == entry["csv"]
