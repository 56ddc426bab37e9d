"""Cold execution throughput: batched shared-work executor vs per-request.

Executes the planned (rewritten) queries of an interleaved multi-session
exploration workload twice from a cold engine (all caches cleared): once
with per-request ``Database.execute`` calls — every index probe computed on
its first miss, every scan intersected and every heatmap histogrammed per
request — and once with ``Database.execute_batch`` — one vectorized
``lookup_batch`` sweep per (table, column) for the batch's distinct probes,
shared predicate row sets, memoized (scan, join, limit) pipelines, and one
fused ``bin_counts_many`` sweep per (table, bin grid).  Results, work
counters, virtual times, and per-request cache hit/miss deltas must be
bit-identical; only the middleware host gets faster.

Also drives the serving pipeline's execute stage both ways (the batched
local stage vs the test tree's ``SequentialExecute`` reference stage) for
the stage-level view and the sharing report.

Writes ``BENCH_execution.json`` (repo root).  At non-tiny scales the batch
executor must clear a 2x cold-throughput gain; at tiny scale (the CI
equivalence smoke) only the bit-identity assertions run.
"""

import json
import time

import numpy as np

from _bench_utils import SCALE, bench_file, build_twitter_serving_setup, emit

from repro.viz import TWITTER_TRANSLATOR

from tests.serving.conftest import SequentialExecute

TINY = SCALE.name == "tiny"
N_TWEETS = 8_000 if TINY else 60_000
SAMPLE_FRACTION = 0.1 if TINY else 0.2
N_SESSIONS = 10 if TINY else 60
STEPS_PER_SESSION = 6 if TINY else 10
TAU_MS = 60.0
UNIT_COST_MS = 10.0
ROUNDS = 2 if TINY else 3
SPEEDUP_BAR = 2.0


def _cold(maliva):
    maliva.qte.invalidate()
    maliva.database.clear_caches()


def _best_of(rounds, run):
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def _assert_identical(sequential, batched):
    assert len(sequential) == len(batched)
    for left, right in zip(sequential, batched):
        assert left.base_ms == right.base_ms
        assert left.execution_ms == right.execution_ms
        assert left.counters.as_dict() == right.counters.as_dict()
        assert left.cache_hits == right.cache_hits
        assert left.cache_misses == right.cache_misses
        assert left.plan_cached == right.plan_cached
        if left.bins is not None:
            assert right.bins == left.bins
        else:
            assert np.array_equal(left.row_ids, right.row_ids)


def test_execution_throughput_batched_vs_sequential(benchmark):
    maliva, stream, queries, _train = build_twitter_serving_setup(
        n_tweets=N_TWEETS,
        n_users=N_TWEETS // 40,
        sample_fraction=SAMPLE_FRACTION,
        qte="sampling",
        unit_cost_ms=UNIT_COST_MS,
        tau_ms=TAU_MS,
        max_epochs=4,
        n_sessions=N_SESSIONS,
        steps_per_session=STEPS_PER_SESSION,
    )
    database = maliva.database
    # The execute stage's input: the planned requests' rewritten queries.
    decisions = maliva.rewrite_batch(queries)
    rewritten = [decision.rewritten for decision in decisions]

    def sequential():
        database.clear_caches()
        return [database.execute(query) for query in rewritten]

    def batched():
        database.clear_caches()
        return database.execute_batch(rewritten)

    seq_s, seq_results = _best_of(ROUNDS, sequential)
    # One instrumented round for pytest-benchmark's report; the asserted
    # results and the best-of timing come from the rounds below.
    benchmark.pedantic(batched, rounds=1, iterations=1)
    bat_s, (bat_results, sharing) = _best_of(ROUNDS, batched)

    _assert_identical(seq_results, bat_results)
    seq_qps = len(rewritten) / seq_s
    bat_qps = len(rewritten) / bat_s
    speedup = seq_s / bat_s

    # The serving pipeline's execute stage, both ways, cold.
    batched_service = maliva.service(translator=TWITTER_TRANSLATOR)
    _cold(maliva)
    batched_service.invalidate()
    batched_outcomes = batched_service.answer_many(stream)
    batched_stage = dict(batched_service.stats.stage_seconds)

    sequential_service = maliva.service(
        translator=TWITTER_TRANSLATOR, execute=SequentialExecute()
    )
    _cold(maliva)
    sequential_service.invalidate()
    sequential_outcomes = sequential_service.answer_many(stream)
    sequential_stage = dict(sequential_service.stats.stage_seconds)
    assert [outcome.total_ms for outcome in batched_outcomes] == [
        outcome.total_ms for outcome in sequential_outcomes
    ]
    assert [outcome.viable for outcome in batched_outcomes] == [
        outcome.viable for outcome in sequential_outcomes
    ]

    payload = {
        "workload": {
            "n_requests": len(rewritten),
            "n_sessions": N_SESSIONS,
            "n_tweets": N_TWEETS,
            "sample_fraction": SAMPLE_FRACTION,
            "tau_ms": TAU_MS,
            "unit_cost_ms": UNIT_COST_MS,
            "scale": SCALE.name,
            "profile": "deterministic",
        },
        "cold_sequential_qps": seq_qps,
        "cold_batched_qps": bat_qps,
        "speedup": speedup,
        "identical_outcomes_vs_sequential": True,
        "sharing": sharing.to_dict(),
        "service_execute_stage": {
            "batched_s": batched_stage.get("execute", 0.0),
            "sequential_s": sequential_stage.get("execute", 0.0),
            "batched_stage_seconds": batched_stage,
            "sequential_stage_seconds": sequential_stage,
        },
    }
    bench_file("BENCH_execution.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )

    emit(
        f"execution throughput ({len(rewritten)}-request interleaved workload, cold engine)\n"
        f"  per-request execute: {seq_qps:10.1f} queries/s\n"
        f"  batched execute    : {bat_qps:10.1f} queries/s\n"
        f"  speedup            : {speedup:10.2f}x  (results + counters + times bit-identical)\n"
        f"  sharing            : {sharing.n_distinct_scans} distinct scans for "
        f"{sharing.n_queries} requests, {sharing.n_probe_sweeps} probe sweeps, "
        f"{sharing.n_bin_sweeps} bin sweeps ({sharing.n_bin_results} histograms)\n"
        f"  service exec stage : batched {batched_stage.get('execute', 0.0):.3f}s vs "
        f"sequential {sequential_stage.get('execute', 0.0):.3f}s"
    )
    if not TINY:
        assert speedup > SPEEDUP_BAR, (
            f"batched cold execution speedup {speedup:.2f}x below the "
            f"{SPEEDUP_BAR:.0f}x bar"
        )
