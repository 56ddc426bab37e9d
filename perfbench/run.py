#!/usr/bin/env python3
"""The benchmark's command: one workload, one seed, one JSON record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the Python
package in ``src/``; there is nothing to build, and without ``src/`` the
import below fails and the command exits non-zero without a result.
"""

import time

_PROCESS_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(process_started=_PROCESS_STARTED))
