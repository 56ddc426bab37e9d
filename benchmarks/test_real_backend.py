"""Real-backend serving: the taxi dashboard on SQLite (DESIGN.md §5.4).

Serves the ops-dashboard widget stream of ``examples/taxi_dashboard.py``
through a :class:`BackendExecute` stage on the stdlib SQLite backend and
pins the equivalence contract at every scale: rows/bins identical to the
in-memory engine on the deterministic sqlite simulation profile, with the
MDP action space pruned to the hints SQLite can honor.

Writes the ``real_backend`` section of ``BENCH_serving.json``: sqlite
end-to-end req/s (a *wall-clock* number — the one serving figure in this
suite where execution time is measured, not virtual) plus the
rewritten-vs-raw engine speedup of the planner's hinted rewrites over the
unhinted originals on the same engine.  The speedup is recorded, not
gated: at tiny scale the dashboard's probes finish in microseconds and
the ratio is noise.
"""

import json
import time

import numpy as np

from repro.backends import SqliteBackend, backend_profile
from repro.cli import _taxi_dashboard_stream
from repro.core import RewriteOptionSpace
from repro.datasets import TRIP_FILTER_ATTRIBUTES, TaxiConfig, build_taxi_database
from repro.serving import BackendExecute, MalivaService
from repro.viz import TAXI_TRANSLATOR
from repro.workloads import TaxiWorkloadGenerator

from _bench_utils import SCALE, SEED, bench_file, emit

from tests.conftest import build_trained_maliva

TINY = SCALE.name == "tiny"
N_SESSIONS = 2 if TINY else 6
N_STEPS = 8  # the 4 widgets, cold + warm refresh


def _signature(outcome):
    if outcome.result.bins is not None:
        return ("bins", outcome.option_label, sorted(outcome.result.bins.items()))
    return (
        "rows",
        outcome.option_label,
        outcome.result.row_ids.tobytes(),
    )


def _build_taxi_maliva():
    profile = backend_profile("sqlite")
    database = build_taxi_database(
        TaxiConfig(n_trips=SCALE.taxi_rows, seed=SEED + 43),
        profile=profile.sim_profile(),
    )
    space = profile.prune_space(
        RewriteOptionSpace.hint_subsets(TRIP_FILTER_ATTRIBUTES),
        database.table("trips").schema,
    )
    train_queries = TaxiWorkloadGenerator(database, seed=3).generate(20)
    return build_trained_maliva(
        database,
        space,
        train_queries,
        qte="accurate",
        tau_ms=500.0,
        max_epochs=6,
        n_train=20,
    )


def test_taxi_dashboard_on_sqlite():
    maliva = _build_taxi_maliva()
    stream = _taxi_dashboard_stream(N_SESSIONS, N_STEPS)
    backend = SqliteBackend()
    backend.ingest(maliva.database)

    with (
        MalivaService(maliva, translator=TAXI_TRANSLATOR) as memory,
        MalivaService(
            maliva, execute=BackendExecute(backend), translator=TAXI_TRANSLATOR
        ) as real,
    ):
        memory_outcomes = memory.answer_many(stream)
        real_outcomes = real.answer_many(stream)
        sqlite_qps = real.stats.throughput_qps
        real.reset_stats()
        real.answer_many(stream)
        warm_qps = real.stats.throughput_qps

        # The equivalence contract, asserted at every scale: the real
        # engine answers the full dashboard exactly like the simulation.
        assert [_signature(o) for o in real_outcomes] == [
            _signature(o) for o in memory_outcomes
        ]
        assert all(np.isfinite(o.execution_ms) for o in real_outcomes)
        # Provably pruned action space: only sqlite-honorable rewrites ran.
        honorable = {option.label() for option in maliva.space.options}
        assert {o.option_label for o in real_outcomes} <= honorable

        # Rewritten-vs-raw on the same engine: total wall ms of the
        # planner's chosen rewrites vs the unhinted originals.
        distinct = {o.original.key(): o for o in real_outcomes}
        rewritten_ms = raw_ms = 0.0
        for outcome in distinct.values():
            started = time.perf_counter()
            backend.execute(outcome.rewritten)
            rewritten_ms += (time.perf_counter() - started) * 1e3
            started = time.perf_counter()
            backend.execute(outcome.original.without_hints())
            raw_ms += (time.perf_counter() - started) * 1e3
        speedup = raw_ms / rewritten_ms if rewritten_ms else 0.0

    bench_path = bench_file("BENCH_serving.json")
    payload = json.loads(bench_path.read_text()) if bench_path.is_file() else {}
    payload.setdefault("workload", {}).setdefault("scale", SCALE.name)
    payload["real_backend"] = {
        "backend": "sqlite",
        "scale": SCALE.name,
        "n_trips": SCALE.taxi_rows,
        "n_requests": len(stream),
        "n_options_after_pruning": len(maliva.space),
        "sqlite_qps": sqlite_qps,
        "warm_sqlite_qps": warm_qps,
        "rewritten_engine_ms": rewritten_ms,
        "raw_engine_ms": raw_ms,
        "rewritten_over_raw_speedup": speedup,
        "identical_outcomes_vs_memory_engine": True,
    }
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    emit(
        f"real backend serving (taxi dashboard, {len(stream)} requests, "
        f"{SCALE.taxi_rows} trips, sqlite)\n"
        f"  cold end-to-end : {sqlite_qps:10.1f} req/s (wall clock)\n"
        f"  warm end-to-end : {warm_qps:10.1f} req/s\n"
        f"  engine rewritten: {rewritten_ms:10.2f} ms   raw: {raw_ms:10.2f} ms "
        f"({speedup:.2f}x)\n"
        f"  outcomes        : rows/bins identical to the in-memory engine\n"
        f"  action space    : {len(maliva.space)} sqlite-honorable options"
    )
