"""Set-up probe: resolve a RunConfig in a fresh interpreter, print the clock.

    python3 bench/setup_probe.py SRC_DIR FLAG...

Prints `time.monotonic()` once `import prmimo` and `parse_config(FLAG...)`
have returned; the caller subtracts the clock it read before starting the
interpreter.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import prmimo  # noqa: E402,F401
from prmimo.cli import parse_config  # noqa: E402

parse_config(sys.argv[2:])
print(repr(time.monotonic()))
