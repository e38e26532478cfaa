"""Byte guard on the pinned benchmark references.

Each entry of ``bench/reference.json`` holds a flag set and the exact
``capacity.csv`` it produced. Running the same flags through the CLI must
reproduce that text byte for byte, serial and with workers, so any change
in the arithmetic that feeds the design eigensolver shows up here.
"""

import json
from pathlib import Path

import pytest

from prmimo.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
PINNED = json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_reproduces_pinned_csv(name, tmp_path):
    entry = PINNED[name]
    assert main(entry["flags"].split() + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "capacity.csv").read_text(encoding="utf-8") == entry["csv"]
