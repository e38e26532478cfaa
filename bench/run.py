"""Campaign benchmark for prmimo.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and NOTES.md) through `prmimo.cli.main`
from the `src/` tree next to this directory, checks every `capacity.csv`
it writes, and prints two JSON lines: a record of the environment and of
every call, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced serial run. The seed is the campaign's `--seed`. The
benchmark sets no BLAS or OpenMP thread variable: the program runs under
whatever the environment gives it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from check import check_csv, load_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150

# Per-trial span totals reported by the traced run, metric name -> span.
SPAN_MS = {
    "montecarlo.draw_paths_ms": "montecarlo.draw_paths",
    "channel.assemble_physical_ms": "channel.assemble_physical",
    "sof.run_sof_ms": "sof.run_sof",
    "sof.correlation_indicator_ms": "sof.correlation_indicator",
    "sof.eig_sym_ms": "sof.eig_sym",
    "sof.solve_modification_vector_ms": "sof.solve_modification_vector",
    "sof.subchannel_gram_ms": "sof.subchannel_gram",
    "cfpa.allocate_power_ms": "cfpa.allocate_power",
    "cfpa.modified_subchannels_ms": "cfpa.modified_subchannels",
    "cfpa.assemble_pattern_channel_ms": "cfpa.assemble_pattern_channel",
    "pattern.capacity_ms": "pattern.capacity",
    "pattern.assemble_pattern_channel_ms": "pattern.assemble_pattern_channel",
    "numerics.logdet_capacity_kernel_ms": "numerics.logdet_capacity_kernel",
    "cli.parse_config_ms": "cli.parse_config",
    "cli.write_capacity_csv_ms": "cli.write_capacity_csv",
}
SPAN_CALLS = {
    "sof.correlation_indicator_calls": "sof.correlation_indicator",
    "sof.eig_sym_calls": "sof.eig_sym",
    "pattern.capacity_calls": "pattern.capacity",
}
LAYERS = ("channel", "pattern", "sof", "cfpa", "numerics", "montecarlo", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_campaign_process(args, work):
    command = [sys.executable, str(HERE / "campaign.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
    # A session of its own, so a timeout can stop the pool workers too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"campaign process exited with {child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def check_calls(workload, calls):
    """Check every call's output; fill in `included` and `problems`."""
    reference = load_reference(workload.name)
    if reference["flags"] != " ".join(workload.check_flags()):
        raise RuntimeError("reference.json was pinned for other flags; re-pin it")
    measured_csv = None
    for call in calls:
        path = Path(call["out"]) / "capacity.csv"
        if call["exit"] != 0 or not path.is_file():
            call["included"], call["problems"] = 0, [f"exit code {call['exit']}"]
            continue
        text = path.read_text(encoding="utf-8")
        pinned = reference if call["phase"] == "check" else None
        call["included"], call["problems"] = check_csv(text, workload, call["trials"], pinned)
        if call["phase"] != "check":
            # Same scenario and seed in every measured call, whatever the
            # worker count or tracing: the bytes must not change.
            measured_csv = text if measured_csv is None else measured_csv
            if text != measured_csv:
                call["problems"].append("capacity.csv differs from the first measured call")
        if call["problems"]:
            call["included"] = 0


def median_rate(calls, phase):
    return statistics.median(c["included"] / c["seconds"] for c in calls if c["phase"] == phase)


def median_per_trial(calls, phase):
    return statistics.median(c["seconds"] / c["trials"] for c in calls if c["phase"] == phase)


def end_to_end(calls, peak_rss_kb, setup_s, attempted, failed):
    return {
        "trials_per_s": (median_rate(calls, "timed"), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "trial_success_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(workload, calls, spans):
    traced = sum(c["included"] for c in calls if c["phase"] == "traced")
    per_trial = max(traced, 1)
    metrics = {}
    trial_ms = [ns / 1e6 for ns in spans["trial_ns"]]
    metrics["montecarlo.trial_samples"] = (len(trial_ms), "count")
    trial_ms = trial_ms or [0.0]  # no trial spans if run_trial is renamed
    metrics["montecarlo.trial_ms_p50"] = (statistics.median(trial_ms), "ms")
    metrics["montecarlo.trial_ms_p99"] = (
        statistics.quantiles(trial_ms, n=100, method="inclusive")[98]
        if len(trial_ms) > 1 else trial_ms[0], "ms")
    for metric, span in SPAN_MS.items():
        metrics[metric] = (spans["total_ns"][span] / 1e6 / per_trial, "ms")
    metrics["sof.assembly_self_ms"] = (spans["self_ns"]["sof.run_sof"] / 1e6 / per_trial, "ms")
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = (spans["calls"][span] / per_trial, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (spans["layer_self_ns"].get(layer, 0) / 1e6 / per_trial,
                                       "ms")
    measured = "parallel" if workload.workers > 1 else "serial"
    serial = median_rate(calls, "serial")
    metrics["montecarlo.parallel_efficiency"] = (
        median_rate(calls, measured) / (workload.workers * serial) if serial else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (
        median_per_trial(calls, "traced") / median_per_trial(calls, "serial") - 1.0, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "prmimo" / "__init__.py").is_file():
        print(f"error: no prmimo package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = run_campaign_process(args, work)
        calls = record["calls"]
        check_calls(workload, calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(c["trials"] for c in calls)
    failed = attempted - sum(c["included"] for c in calls)
    if args.trace:
        metrics = per_layer(workload, calls, record["spans"])
    else:
        metrics = end_to_end(calls, record["peak_rss_kb"], record["setup_s"], attempted,
                             failed)
    environment = dict(record["environment"], nproc=os.cpu_count(),
                       cpus_usable=len(os.sched_getaffinity(0)),
                       workers=workload.workers, workload_seed=args.seed)
    print(json.dumps({"environment": environment,
                      "calls": [{k: c[k] for k in ("phase", "trials", "included",
                                                   "seconds", "problems")}
                                for c in calls]}))
    print(json.dumps({
        "correct": not any(c["problems"] for c in calls),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
