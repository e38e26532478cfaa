"""Pin the output-check reference: each workload's warm-up campaign at its
default seed, run through `prmimo.cli.main` and stored in reference.json.

    python3 bench/pin_reference.py

Re-pin only in a change that deliberately alters `capacity.csv` and says so.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from prmimo import cli  # noqa: E402

from check import REFERENCE_PATH  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, workload in WORKLOADS.items():
            flags = workload.check_flags()
            if cli.main(flags + ["--out", tmp]) != 0:
                raise SystemExit(f"{name}: campaign failed")
            csv = (Path(tmp) / "capacity.csv").read_text(encoding="utf-8")
            pinned[name] = {"flags": " ".join(flags), "csv": csv}
    REFERENCE_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
