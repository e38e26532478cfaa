"""Command-line front end for capacity campaigns.

Builds a scenario from flags and an optional flat key=value config file
(flags win), runs the Monte Carlo campaign, and persists deterministic
CSV output next to a metadata record and an optional plot script.

Exit codes: 0 success, 1 usage error, 2 runtime or campaign error.
"""

import argparse
import sys
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import __version__
from .channel import CONDITIONS, ArrayGeometry
from .errors import PrMimoError
from .montecarlo import Scenario, _check_request, run_campaign

CSV_HEADER = "scheme,snr_db,mean_capacity_bps_hz,std_capacity_bps_hz,trials"


class UsageError(Exception):
    """Bad flags, bad config file, or a configuration invariant violation."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved campaign request."""

    scenario: Scenario
    schemes: tuple
    safeguard: bool
    workers: int
    out: Path
    emit_plot: bool


def _build_parser():
    # Each option's one default and type; config file keys are its destinations.
    parser = _Parser(
        prog="prmimo",
        description="Capacity-vs-SNR campaigns for transmit-pattern design.",
        allow_abbrev=False,
    )
    parser.add_argument("--nt", type=int, default=32, help="transmit antenna count")
    parser.add_argument("--nr", type=int, default=8, help="receive antenna count")
    parser.add_argument("--ncl", type=int, default=10, help="scattering cluster count")
    parser.add_argument("--nray", type=int, default=8, help="rays per cluster")
    parser.add_argument("--xi-deg", dest="xi_deg", type=float, default=3.0,
                        help="ray angle spread std deviation, degrees")
    parser.add_argument("--spacing", type=float, default=0.5,
                        help="normalized antenna spacing at both arrays")
    parser.add_argument("--snr-db", dest="snr_db", type=parse_snr_grid, default="-10:5:20",
                        help="SNR grid as start:step:stop in dB")
    parser.add_argument("--trials", type=int, default=1000, help="Monte Carlo trial count")
    parser.add_argument("--seed", type=int, default=12345, help="campaign master seed")
    # The library checks the value, so the choices are only shown.
    parser.add_argument("--condition", metavar="{%s}" % ",".join(CONDITIONS), default="ill",
                        help="cluster power conditioning regime")
    parser.add_argument("--schemes", default="physical,pattern,ideal",
                        help="comma list from: physical, pattern, ideal")
    parser.add_argument("--safeguard", action="store_true",
                        help="floor the designed pattern at the physical channel")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial worker processes (default 1: one per usable core)")
    parser.add_argument("--out", type=Path, default=".", help="output directory")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--emit-plot", dest="emit_plot", action="store_true",
                        help="also write a plot script for the CSV")
    return parser


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_config_file(parser, path):
    # The file's values, each converted as its flag's value would be, and
    # the line that set each.
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values, lines = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        action = actions.get(key)
        if action is None:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        convert = _parse_bool if action.nargs == 0 else action.type or str
        try:
            values[key] = convert(value)
        except (ValueError, UsageError) as exc:
            raise UsageError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
        lines[key] = line_no
    return values, lines


def parse_snr_grid(text):
    """Expand a start:step:stop dB string into an inclusive grid, distinct at 9 digits."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise UsageError(f"snr grid must be start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad snr grid {text!r}: {exc}") from exc
    if not np.isfinite([start, step, stop]).all():
        raise UsageError(f"snr grid values must be finite, got {text!r}")
    if step <= 0:
        raise UsageError("snr grid step must be positive")
    if stop < start:
        raise UsageError("snr grid stop must be >= start")
    try:
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        grid = start + step * np.arange(count)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise UsageError(f"snr grid {text!r} has too many points: {exc}") from exc
    # The grid ascends, so points that print alike are neighbours.
    if any(a == b for a, b in pairwise(map(_fmt, grid))):
        raise UsageError(f"snr grid {text!r} has points alike at 9 significant digits")
    return grid


def _normalize_argv(argv):
    # Fold the snr grid value into --snr-db=... form; grids starting at a
    # negative dB value would otherwise be mistaken for option strings.
    argv = list(sys.argv[1:] if argv is None else argv)
    folded = []
    while argv:
        token = argv.pop(0)
        if token == "--snr-db" and argv:
            token = f"--snr-db={argv.pop(0)}"
        folded.append(token)
    return folded


def parse_config(argv=None):
    """Resolve defaults, config file, and flags (which win) into a RunConfig.

    A stage of the run that fails its check names the file lines of its
    own keys that no flag overrode.
    """
    parser = _build_parser()
    argv = _normalize_argv(argv)
    path = parser.parse_known_args(argv)[0].config
    lines = {}
    if path is not None:
        values, lines = _read_config_file(parser, path)
        parser.set_defaults(**values)
    args = parser.parse_args(argv)
    try:
        keys = ("schemes", "workers")
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        schemes, workers = _check_request(schemes, args.workers)
        keys = ("nt", "nr", "spacing")
        geometry = ArrayGeometry(args.nt, args.nr, spacing_t=args.spacing, spacing_r=args.spacing)
        keys = ("ncl", "nray", "condition", "xi_deg", "snr_db", "trials", "seed")
        scenario = Scenario(
            geometry=geometry,
            n_cl=args.ncl,
            n_ray=args.nray,
            condition=args.condition,
            angle_spread=np.deg2rad(args.xi_deg),
            snr_db=args.snr_db,
            trials=args.trials,
            master_seed=args.seed,
        )
    except PrMimoError as exc:
        # Only the stage's keys start at None here, and a flag replaces its own.
        flags = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(keys)))
        kept = [f"{path}:{n} {key}" for key, n in lines.items() if getattr(flags, key) is None]
        raise UsageError(f"{exc} (from {', '.join(kept)})" if kept else str(exc)) from exc

    return RunConfig(
        scenario=scenario,
        schemes=schemes,
        safeguard=args.safeguard,
        workers=workers,
        out=args.out,
        emit_plot=args.emit_plot,
    )


def _fmt(value):
    return format(float(value), ".9g")


def write_capacity_csv(path, curves):
    """Write the per-scheme curves as deterministic, diff-friendly CSV."""
    rows = [
        (curve.scheme, float(snr), float(mean), float(std), int(curve.trials))
        for curve in curves
        for snr, mean, std in zip(curve.snr_db, curve.mean, curve.std)
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for scheme, snr, mean, std, trials in rows:
            handle.write(f"{scheme},{_fmt(snr)},{_fmt(mean)},{_fmt(std)},{trials}\n")


def write_run_meta(path, config):
    """Record the resolved configuration next to the results."""
    scenario = config.scenario
    geometry = scenario.geometry
    entries = [
        ("artifact", "prmimo"),
        ("version", __version__),
        ("nt", geometry.n_t),
        ("nr", geometry.n_r),
        ("spacing_t", _fmt(geometry.spacing_t)),
        ("spacing_r", _fmt(geometry.spacing_r)),
        ("ncl", scenario.n_cl),
        ("nray", scenario.n_ray),
        ("condition", scenario.condition),
        ("xi_deg", _fmt(np.rad2deg(scenario.angle_spread))),
        ("snr_db", ",".join(_fmt(v) for v in scenario.snr_db)),
        ("trials", scenario.trials),
        ("seed", scenario.master_seed),
        ("schemes", ",".join(config.schemes)),
        ("safeguard", str(config.safeguard).lower()),
        ("workers", config.workers),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in entries:
            handle.write(f"{key}={value}\n")


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render capacity-vs-SNR curves from the capacity.csv next to this file.\"\"\"

import csv
from collections import defaultdict
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
curves = defaultdict(list)
with open(here / "capacity.csv", encoding="utf-8") as handle:
    for row in csv.DictReader(handle):
        curves[row["scheme"]].append(
            (
                float(row["snr_db"]),
                float(row["mean_capacity_bps_hz"]),
                float(row["std_capacity_bps_hz"]),
            )
        )

markers = {"physical": "s", "pattern": "o", "ideal": "^"}
fig, ax = plt.subplots(figsize=(6.0, 4.5))
for scheme in sorted(curves):
    points = sorted(curves[scheme])
    snr = [p[0] for p in points]
    mean = [p[1] for p in points]
    std = [p[2] for p in points]
    ax.errorbar(snr, mean, yerr=std, marker=markers.get(scheme, "x"),
                capsize=3, label=scheme)
ax.set_xlabel("Transmit SNR (dB)")
ax.set_ylabel("Capacity (bits/s/Hz)")
ax.grid(True, linestyle="--", alpha=0.4)
ax.legend()
fig.tight_layout()
out = here / "capacity_vs_snr.png"
fig.savefig(out, dpi=200)
print(f"wrote {out}")
"""


def write_plot_script(path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(PLOT_SCRIPT)


def run(config):
    """Execute the campaign and write all requested artifacts."""
    out = config.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    try:
        curves = run_campaign(
            config.scenario,
            schemes=config.schemes,
            workers=config.workers,
            safeguard=config.safeguard,
        )
    except PrMimoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        write_capacity_csv(out / "capacity.csv", curves)
        write_run_meta(out / "run.meta", config)
        if config.emit_plot:
            write_plot_script(out / "plot.script")
    except OSError as exc:
        print(f"error: cannot write results to {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"prmimo: usage error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
