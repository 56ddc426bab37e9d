"""Cold planning throughput: lockstep batch pipeline vs sequential planner.

Plans an interleaved multi-session exploration workload twice from a cold
engine (QTE memos and engine caches cleared): once with per-request
``Maliva.rewrite`` calls — one ``QNetwork`` forward pass per MDP step per
query, one sample-table count per uncollected selectivity — and once with
lockstep ``Maliva.rewrite_batch`` — one forward pass per MDP *depth* for
the whole frontier and one fused vectorized sample pass per depth.  The
decisions and virtual planning times must be bit-identical; only the
middleware host gets faster.

Also drives the staged serving pipeline (resolve → schedule → batch-plan →
execute) against a per-request ``answer_one`` loop for the end-to-end view
and per-stage breakdown, and times one lockstep vs sequential training
epoch.

Writes ``BENCH_planning.json`` (repo root).  At non-tiny scales the batch
planner must clear a 3x cold-QPS gain; at tiny scale (the CI equivalence
smoke) only the bit-identity assertions run.
"""

import json
import time

from _bench_utils import SCALE, bench_file, build_twitter_serving_setup, emit

from repro.core import TrainingConfig
from repro.core.trainer import DQNTrainer
from repro.viz import TWITTER_TRANSLATOR

TINY = SCALE.name == "tiny"
N_TWEETS = 8_000 if TINY else 60_000
SAMPLE_FRACTION = 0.1 if TINY else 0.2
N_SESSIONS = 10 if TINY else 60
STEPS_PER_SESSION = 6 if TINY else 10
TAU_MS = 60.0
UNIT_COST_MS = 10.0
ROUNDS = 2 if TINY else 3
SPEEDUP_BAR = 3.0


def _build():
    return build_twitter_serving_setup(
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


def test_planning_throughput_batched_vs_sequential(benchmark):
    maliva, stream, queries, train_queries = _build()

    def sequential():
        _cold(maliva)
        return [maliva.rewrite(query) for query in queries]

    def batched():
        _cold(maliva)
        return maliva.rewrite_batch(queries)

    seq_s, seq_decisions = _best_of(ROUNDS, sequential)
    # One instrumented round for pytest-benchmark's report; the asserted
    # decisions and the best-of timing come from the rounds below.
    benchmark.pedantic(batched, rounds=1, iterations=1)
    bat_s, bat_decisions = _best_of(ROUNDS, batched)

    # The lockstep invariant: bit-identical decisions and virtual times.
    assert len(bat_decisions) == len(seq_decisions) == len(queries)
    for left, right in zip(seq_decisions, bat_decisions):
        assert left.option_index == right.option_index
        assert left.option_label == right.option_label
        assert left.planning_ms == right.planning_ms
        assert left.reason == right.reason
        assert left.n_explored == right.n_explored
        assert left.rewritten.key() == right.rewritten.key()

    seq_qps = len(queries) / seq_s
    bat_qps = len(queries) / bat_s
    speedup = seq_s / bat_s

    # End-to-end staged pipeline vs per-request serving (cold decision
    # cache), for the serving view and the per-stage breakdown.
    service = maliva.service(translator=TWITTER_TRANSLATOR)
    _cold(maliva)
    service.invalidate()
    pipeline_started = time.perf_counter()
    pipeline_outcomes = service.answer_many(stream)
    pipeline_s = time.perf_counter() - pipeline_started
    stage_seconds = dict(service.stats.stage_seconds)

    reference = maliva.service(translator=TWITTER_TRANSLATOR)
    _cold(maliva)
    reference_started = time.perf_counter()
    reference_outcomes = [reference.answer_one(request) for request in stream]
    reference_s = time.perf_counter() - reference_started
    assert [outcome.total_ms for outcome in pipeline_outcomes] == [
        outcome.total_ms for outcome in reference_outcomes
    ]
    assert [outcome.viable for outcome in pipeline_outcomes] == [
        outcome.viable for outcome in reference_outcomes
    ]

    # Lockstep vs sequential training: one greedy epoch over the training
    # workload through the same batched machinery.
    trainer_seq = DQNTrainer(
        maliva.database, maliva.qte, maliva.space, TAU_MS,
        config=TrainingConfig(seed=3),
    )
    trainer_lock = DQNTrainer(
        maliva.database, maliva.qte, maliva.space, TAU_MS,
        config=TrainingConfig(seed=3, lockstep=True),
    )
    _cold(maliva)
    epoch_started = time.perf_counter()
    for query in train_queries:
        trainer_seq.run_episode(query, epsilon=0.2)
    seq_epoch_s = time.perf_counter() - epoch_started
    _cold(maliva)
    epoch_started = time.perf_counter()
    trainer_lock.run_episodes_lockstep(list(train_queries), epsilon=0.2)
    lock_epoch_s = time.perf_counter() - epoch_started

    payload = {
        "workload": {
            "n_requests": len(queries),
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
        "bit_identical_decisions_and_virtual_times": True,
        "pipeline": {
            "cold_pipeline_qps": len(stream) / pipeline_s,
            "cold_per_request_qps": len(stream) / reference_s,
            "stage_seconds": stage_seconds,
            "identical_outcomes_vs_answer_one": True,
        },
        "training_epoch": {
            "sequential_s": seq_epoch_s,
            "lockstep_s": lock_epoch_s,
        },
    }
    bench_file("BENCH_planning.json").write_text(json.dumps(payload, indent=2, sort_keys=True))

    stages = "  ".join(
        f"{stage}={seconds:.3f}s" for stage, seconds in stage_seconds.items()
    )
    emit(
        f"planning throughput ({len(queries)}-request interleaved workload, cold engine)\n"
        f"  sequential planner : {seq_qps:10.1f} plans/s\n"
        f"  lockstep batch     : {bat_qps:10.1f} plans/s\n"
        f"  speedup            : {speedup:10.2f}x  (decisions + virtual times bit-identical)\n"
        f"  serving pipeline   : {len(stream) / pipeline_s:10.1f} req/s vs "
        f"{len(stream) / reference_s:.1f} req/s per-request\n"
        f"  pipeline stages    : {stages}\n"
        f"  training epoch     : lockstep {lock_epoch_s:.3f}s vs sequential {seq_epoch_s:.3f}s"
    )
    if not TINY:
        assert speedup > SPEEDUP_BAR, (
            f"batched cold planning speedup {speedup:.2f}x below the "
            f"{SPEEDUP_BAR:.0f}x bar"
        )
