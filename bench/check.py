"""Output check for one campaign's `capacity.csv`.

The check is written from the CSV format the CLI documents, not from
prmimo's code: it needs only the standard library.

- The header is exact and there is one row per (scheme, SNR), sorted by
  scheme then SNR, with the SNR grid the workload asked for.
- `physical` and `pattern` rows carry the requested trial count, less any
  excluded failures; `ideal` rows carry 0.
- `ideal` means equal `n_r * log2(1 + snr * n_t / n_r)` and have zero std.
- `physical` and `pattern` means are nonnegative and at or below `ideal`.
- Optionally, `physical` and `pattern` mean and std lie within REF_RTOL of
  a pinned reference (see `reference.json`, written by `pin_reference.py`).
"""

import json
import math
from pathlib import Path

from workloads import NR, NT

CSV_HEADER = "scheme,snr_db,mean_capacity_bps_hz,std_capacity_bps_hz,trials"
SCHEMES = ("ideal", "pattern", "physical")  # CSV row order
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Mean and std must match the pinned reference to this share of the
# reference mean. Round-off from a reordered computation moves the 9-digit
# CSV values by about 1e-8 of the mean; a wrong design moves the pattern
# mean by more than 1e-3.
REF_RTOL = 1e-6
# The ideal curve is printed at 9 significant digits.
IDEAL_RTOL = 1e-8


def snr_grid(text):
    start, step, stop = (float(part) for part in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * j for j in range(count)]


def ideal_capacity(snr_db):
    return NR * math.log2(1.0 + 10.0 ** (snr_db / 10.0) * NT / NR)


def load_reference(name):
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]


def parse_rows(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"bad row {line!r}")
        scheme, snr, mean, std, trials = fields
        rows.append((scheme, float(snr), float(mean), float(std), int(trials)))
    return rows


def check_csv(text, workload, trials, reference=None):
    """Check one capacity.csv; return (included trials, list of problems)."""
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return 0, [str(exc)]
    grid = snr_grid(workload.snr_db)
    expected = [(scheme, snr) for scheme in SCHEMES for snr in grid]
    if len(rows) != len(expected) or any(
        row[0] != scheme or abs(row[1] - snr) > 1e-9
        for row, (scheme, snr) in zip(rows, expected)
    ):
        return 0, [f"rows are not one per (scheme, snr) over {workload.snr_db}"]

    problems = []
    ideal = {}
    included = {row[4] for row in rows if row[0] != "ideal"}
    if len(included) != 1 or not 0 < min(included) <= trials:
        problems.append(f"trials column {sorted(included)} for {trials} requested")
    for scheme, snr, mean, std, count in rows:
        if scheme == "ideal":
            exact = ideal_capacity(snr)
            ideal[snr] = exact
            if count != 0 or std != 0.0 or abs(mean - exact) > IDEAL_RTOL * exact:
                problems.append(f"ideal row at {snr:g} dB is {mean!r}, expected {exact!r}")
        elif not (0.0 <= mean <= ideal[snr] * (1 + IDEAL_RTOL) and std >= 0.0):
            problems.append(f"{scheme} at {snr:g} dB: mean {mean!r} outside [0, ideal]")

    if reference is not None:
        pinned = parse_rows(reference["csv"])
        for (scheme, snr, mean, std, count), ref in zip(rows, pinned):
            if scheme == "ideal":
                continue
            tol = REF_RTOL * abs(ref[2])
            if count != ref[4] or abs(mean - ref[2]) > tol or abs(std - ref[3]) > tol:
                problems.append(
                    f"{scheme} at {snr:g} dB: mean {mean!r} std {std!r} trials {count}"
                    f" differ from pinned {ref[2]!r} {ref[3]!r} {ref[4]}"
                )
    return (min(included) if len(included) == 1 else 0), problems
