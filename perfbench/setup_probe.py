"""Time a fresh interpreter's set-up: import, parse and plan, up to the first
evaluation.  Prints the seconds as one number.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_FILE
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fokas_heat  # noqa: E402
from fokas_heat import cli  # noqa: E402

with open(sys.argv[2]) as fh:
    config, manifest = cli.parse_config(fh.read())
fokas_heat.solve(config, manifest.numerics())
print(repr(time.perf_counter() - t0))
