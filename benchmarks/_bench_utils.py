"""Shared helpers for the benchmark suite.

Benchmarks double as the paper-reproduction harness: each ``test_*``
regenerates one table/figure of the paper (streamed to the terminal —
capture is disabled by ``conftest.py`` — and appended to
``results/experiment_report.txt``, with structured JSON under ``results/``)
and benchmarks the hot primitive underlying that experiment.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``tiny`` / ``small`` / ``medium``, default ``small``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments import get_scale

SCALE = get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

_REPORT_PATH = Path("results") / "experiment_report.txt"


def emit(text: str) -> None:
    """Print a reproduced table and append it to the durable report file."""
    block = f"\n{text}\n"
    print(block, flush=True)
    _REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(_REPORT_PATH, "a") as handle:
        handle.write(block)


def bench_rounds() -> int:
    """How many rounds to measure per benchmark (kept small: the figure
    computation dominates; the benchmark tracks the primitive's cost)."""
    return 3 if SCALE.name != "tiny" else 2
