"""Campaign process of the benchmark: runs `prmimo.cli.main` and times it.

    python3 bench/campaign.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

`run.py` starts this in a fresh interpreter, so its peak resident memory
is that of one campaign process and its workers. Every call writes its
output to its own directory under DIR for `run.py` to check. The last
stdout line is one JSON object: the calls made, the peak RSS, the
environment and, with `--trace 1`, the aggregated spans.

Phases, each a loop of identical `main()` calls until its time is used:

- `check`: one warm-up campaign at the workload's default seed; its CSV
  is compared with the pinned reference.
- `--trace 0`: `timed`, the workload as given, for S seconds.
- `--trace 1`: `parallel` (the workload with its workers, only when it
  has more than one), `serial` (one worker, untraced) and `traced` (one
  worker, with spans), sharing S seconds.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from prmimo import cfpa, cli, montecarlo, pattern, sof  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Span name -> (module the caller looks the name up in, attribute).
SITES = {
    "cli.parse_config": (cli, "parse_config"),
    "cli.run_campaign": (cli, "run_campaign"),
    "cli.write_capacity_csv": (cli, "write_capacity_csv"),
    "cli.write_run_meta": (cli, "write_run_meta"),
    "montecarlo.run_trial": (montecarlo, "run_trial"),
    "montecarlo.draw_paths": (montecarlo, "draw_paths"),
    "channel.condition_profile": (montecarlo, "condition_profile"),
    "channel.sample_cluster_paths": (montecarlo, "sample_cluster_paths"),
    "channel.assemble_physical": (montecarlo, "assemble_physical"),
    "pattern.capacity": (montecarlo, "capacity"),
    "cfpa.design_pattern": (montecarlo, "design_pattern"),
    "pattern.assemble_pattern_channel": (montecarlo, "assemble_pattern_channel"),
    "sof.run_sof": (cfpa, "run_sof"),
    "cfpa.allocate_power": (cfpa, "allocate_power"),
    "cfpa.modified_subchannels": (cfpa, "modified_subchannels"),
    "cfpa.assemble_pattern_channel": (cfpa, "assemble_pattern_channel"),
    "sof.subchannel_gram": (sof, "subchannel_gram"),
    "sof.receiver_factor_matrix": (sof, "receiver_factor_matrix"),
    "sof.correlation_indicator": (sof, "correlation_indicator"),
    "sof.solve_modification_vector": (sof, "solve_modification_vector"),
    "sof.eig_sym": (sof, "eig_sym"),
    "numerics.logdet_capacity_kernel": (pattern, "logdet_capacity_kernel"),
}
SETUP_PROBES = 7
ROOT_SPAN = "cli.main"
TRIAL_SPAN = "montecarlo.run_trial"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    threads = {var: os.environ[var] for var in THREAD_VARS if var in os.environ}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "default",
    }


def setup_seconds(flags):
    """Seconds from starting an interpreter to a resolved RunConfig."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), *flags],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def run_phase(phase, main, flags, trials, seconds, work, between=None):
    """Repeat `main(flags)` until `seconds` have passed; call `between()`
    after each call."""
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        out = work / f"{phase}-{len(calls)}"
        t0 = time.perf_counter()
        code = main(flags + ["--out", str(out)])
        elapsed = time.perf_counter() - t0
        calls.append({"phase": phase, "out": str(out), "exit": code,
                      "seconds": elapsed, "trials": trials})
        if between is not None:
            between()
    return calls


def span_summary(tracer):
    names = [ROOT_SPAN, *SITES]
    return {
        "total_ns": {name: tracer.total_ns[name] for name in names},
        "self_ns": {name: tracer.self_ns(name) for name in names},
        "calls": {name: tracer.calls[name] for name in names},
        "layer_self_ns": tracer.layer_self_ns(),
        "trial_ns": tracer.durations[TRIAL_SPAN],
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    trials = workload.trials

    calls = run_phase("check", cli.main, workload.check_flags(),
                      workload.check_trials, 0, args.work)
    spans = setup = None
    if not args.trace:
        # Set-up probes run between the timed calls, so that they sample the
        # machine across the whole run rather than in one burst.
        flags = workload.flags(args.seed, trials)
        setup = []
        calls += run_phase("timed", cli.main, flags, trials, args.seconds, args.work,
                           between=lambda: setup.append(setup_seconds(flags)))
        while len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(flags))
    else:
        phases = (["parallel"] if workload.workers > 1 else []) + ["serial", "traced"]
        share = args.seconds / len(phases)
        if workload.workers > 1:
            calls += run_phase("parallel", cli.main, workload.flags(args.seed, trials),
                               trials, share, args.work)
        serial = workload.flags(args.seed, trials, workers=1)
        calls += run_phase("serial", cli.main, serial, trials, share, args.work)
        tracer = Tracer(keep_durations=[TRIAL_SPAN])
        with tracer.installed(SITES):
            calls += run_phase("traced", tracer.wrap(ROOT_SPAN, cli.main), serial,
                               trials, share, args.work)
        spans = span_summary(tracer)

    # RUSAGE_CHILDREN also covers the set-up probes, which import less and
    # run less than this process, so they never raise the maximum.
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"calls": calls, "peak_rss_kb": peak_kb,
                      "setup_s": setup and statistics.median(setup),
                      "environment": environment(), "spans": spans}))


if __name__ == "__main__":
    main()
