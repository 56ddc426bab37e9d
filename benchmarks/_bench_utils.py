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
import sys
from pathlib import Path

from repro.experiments import get_scale

SCALE = get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

_REPORT_PATH = Path("results") / "experiment_report.txt"

# The canonical database/middleware/workload builders live in
# tests/conftest.py (shared with the test fixtures); make the repo root
# importable so the benchmarks reuse them instead of keeping copies.
_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:  # pragma: no cover - import plumbing
    sys.path.insert(0, str(_REPO_ROOT))


def bench_file(name: str) -> Path:
    """Where a ``BENCH_*.json`` report lives: the repo root, whatever the
    CWD — running pytest from ``benchmarks/`` must not fork the report."""
    return _REPO_ROOT / name


def build_twitter_serving_setup(
    *,
    n_tweets: int,
    sample_fraction: float,
    qte: str,
    unit_cost_ms: float,
    max_epochs: int,
    n_sessions: int,
    steps_per_session: int,
    n_users: int | None = None,
    tau_ms: float = 60.0,
    n_fit: int = 10,
    n_train: int = 20,
):
    """Trained twitter middleware + interleaved session stream + queries.

    One builder for every serving/planning/execution benchmark (the shape
    each used to assemble by hand): returns ``(maliva, stream, queries,
    train_queries)`` where ``queries`` are the stream's translated
    SelectQuerys in arrival order.
    """
    from repro.core import RewriteOptionSpace
    from repro.viz import TWITTER_TRANSLATOR
    from repro.workloads import TwitterWorkloadGenerator

    from tests.conftest import (
        build_session_stream,
        build_trained_maliva,
        build_twitter_db,
    )

    database = build_twitter_db(
        n_tweets=n_tweets,
        n_users=n_users if n_users is not None else n_tweets // 20,
        dataset_seed=SEED + 9,
        engine_seed=SEED,
        sample_fraction=sample_fraction,
    )
    space = RewriteOptionSpace.hint_subsets(("text", "created_at", "coordinates"))
    train_queries = TwitterWorkloadGenerator(database, seed=21).generate(20)
    maliva = build_trained_maliva(
        database,
        space,
        train_queries,
        qte=qte,
        unit_cost_ms=unit_cost_ms,
        tau_ms=tau_ms,
        max_epochs=max_epochs,
        agent_seed=13,
        n_fit=n_fit,
        n_train=n_train,
    )
    stream = build_session_stream(
        database, n_sessions=n_sessions, n_steps=steps_per_session, seed=29
    )
    queries = [TWITTER_TRANSLATOR.to_query(request.payload) for request in stream]
    return maliva, stream, queries, train_queries


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
