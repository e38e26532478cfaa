"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_csv, load_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KEPT = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", KEPT)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_contract_names_only_defined_workloads():
    assert set(KEPT) <= set(WORKLOADS)


def pinned(name="ref_ill"):
    return load_reference(name)["csv"]


def perturb(text, scheme, snr, column, change):
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        if fields[0] == scheme and float(fields[1]) == snr:
            fields[column] = change(fields[column])
            lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def test_check_accepts_pinned_output():
    workload = WORKLOADS["ref_ill"]
    assert check_csv(pinned(), workload, workload.check_trials, load_reference("ref_ill")) == (
        workload.check_trials, [])


@pytest.mark.parametrize("make", [
    lambda t: perturb(t, "pattern", 10.0, 2, lambda v: repr(float(v) * (1 + 1e-5))),
    lambda t: perturb(t, "physical", -5.0, 3, lambda v: repr(float(v) * 1.01)),
    lambda t: perturb(t, "pattern", 20.0, 2, lambda v: "80.0"),
    lambda t: perturb(t, "ideal", 0.0, 2, lambda v: repr(float(v) + 1e-3)),
    lambda t: perturb(t, "physical", 0.0, 4, lambda v: "5"),
    lambda t: "".join(t.splitlines(keepends=True)[:-1]),
    lambda t: t.replace("mean_capacity_bps_hz", "mean"),
], ids=["pattern-mean", "physical-std", "above-ideal", "ideal", "trials", "missing-row",
        "header"])
def test_check_rejects_perturbed_csv(make):
    workload = WORKLOADS["ref_ill"]
    text = make(pinned())
    assert text != pinned()
    _, problems = check_csv(text, workload, workload.check_trials, load_reference("ref_ill"))
    assert problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", KEPT[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
