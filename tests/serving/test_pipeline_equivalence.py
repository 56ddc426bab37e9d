"""Pipeline equivalence: staged/batched serving == per-request serving.

The acceptance property of the batched planning pipeline: for any batch,
scheduler, seed, and QTE, ``answer_many`` (resolve → schedule → batch-plan
→ execute) and chunked ``answer_stream`` produce bit-identical option
labels, ``planning_ms``, and ``total_ms`` to per-request ``answer_one``
calls on the deterministic engine profile.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Maliva
from repro.serving import (
    FifoScheduler,
    MalivaService,
    SessionAffinityScheduler,
)
from repro.viz import TWITTER_TRANSLATOR

from ..conftest import build_trained_maliva
from .conftest import SequentialExecute


@pytest.fixture(scope="module")
def sampling_serving_maliva(twitter_db, twitter_queries, hint_space) -> Maliva:
    return build_trained_maliva(
        twitter_db,
        hint_space,
        twitter_queries,
        qte="sampling",
        max_epochs=5,
        agent_seed=7,
        n_fit=6,
        n_train=16,
    )


@pytest.mark.parametrize("scheduler_cls", [SessionAffinityScheduler, FifoScheduler])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("qte_kind", ["accurate", "sampling"])
def test_answer_many_pipeline_bit_identical_to_answer_one(
    serving_maliva, sampling_serving_maliva, make_workload, scheduler_cls, seed, qte_kind
):
    maliva = serving_maliva if qte_kind == "accurate" else sampling_serving_maliva
    requests = make_workload(seed, 30)
    pipelined = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, scheduler=scheduler_cls()
    )
    sequential = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, scheduler=scheduler_cls()
    )
    batched = pipelined.answer_many(requests)
    one_by_one = [sequential.answer_one(request) for request in requests]
    assert len(batched) == len(requests)
    for left, right in zip(batched, one_by_one):
        assert left.option_label == right.option_label
        assert left.planning_ms == right.planning_ms
        assert left.execution_ms == right.execution_ms
        assert left.total_ms == right.total_ms
        assert left.reason == right.reason
        assert left.viable == right.viable


@pytest.mark.parametrize("chunk", [1, 4, 7, 64])
def test_answer_stream_micro_batches_preserve_order_and_times(
    serving_maliva, make_workload, chunk
):
    requests = make_workload(3, 25)
    streamed = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=chunk
    )
    reference = MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)
    served = list(streamed.answer_stream(iter(requests)))
    assert [request.request_id for request, _ in served] == [
        request.request_id for request in requests
    ]
    expected = [reference.answer_one(request) for request in requests]
    for (_, outcome), reference_outcome in zip(served, expected):
        assert outcome.option_label == reference_outcome.option_label
        assert outcome.total_ms == reference_outcome.total_ms


def test_stream_micro_batches_reach_scheduler_and_decision_cache(
    serving_maliva, make_workload
):
    """Streams ride the same pipeline: chunked requests are scheduled for
    affinity and the second pass over the stream hits the decision cache."""
    requests = make_workload(5, 24)
    service = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=8
    )
    list(service.answer_stream(iter(requests)))
    assert service.stats.stage_seconds.get("schedule") is not None
    list(service.answer_stream(iter(requests)))
    warm = service.stats.records[len(requests):]
    assert all(record.decision_cached for record in warm)


def test_within_batch_duplicates_plan_once_and_mark_cached(
    serving_maliva, make_workload
):
    base = make_workload(7, 6)
    duplicated = base + [replace(request) for request in base]
    service = MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)
    outcomes = service.answer_many(duplicated)
    for first, second in zip(outcomes[: len(base)], outcomes[len(base):]):
        assert first.total_ms == second.total_ms
        assert first.option_label == second.option_label
    # The duplicate half skipped the plan stage.
    records = {record.request_id: record for record in service.stats.records}
    assert sum(record.decision_cached for record in service.stats.records) >= len(base)


def test_stage_seconds_cover_the_pipeline(serving_maliva, make_workload):
    requests = make_workload(11, 16)
    service = MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)
    service.answer_many(requests)
    stages = service.stats.to_dict()["stage_seconds"]
    assert set(stages) == {"resolve", "schedule", "plan", "execute"}
    assert all(seconds >= 0.0 for seconds in stages.values())
    # Wall accounting stays consistent: per-request walls sum to ~the total.
    assert service.stats.wall_seconds > 0.0


def test_invalid_stream_batch_size_rejected(serving_maliva):
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        MalivaService(serving_maliva, stream_batch_size=0)
    service = MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)
    with pytest.raises(QueryError):
        list(service.answer_stream(iter([]), stream_batch_size=0))


# ----------------------------------------------------------------------
# Batched execute stage
# ----------------------------------------------------------------------
def _assert_outcomes_identical(batched, sequential):
    assert len(batched) == len(sequential)
    for left, right in zip(batched, sequential):
        assert left.option_label == right.option_label
        assert left.planning_ms == right.planning_ms
        assert left.execution_ms == right.execution_ms
        assert left.viable == right.viable
        assert left.result.base_ms == right.result.base_ms
        assert left.result.counters.as_dict() == right.result.counters.as_dict()
        assert left.result.result_size == right.result.result_size
        if left.result.bins is not None:
            assert left.result.bins == right.result.bins
        else:
            assert np.array_equal(left.result.row_ids, right.result.row_ids)


@pytest.mark.parametrize("scheduler_cls", [SessionAffinityScheduler, FifoScheduler])
def test_batched_execute_stage_matches_sequential_execute(
    serving_maliva, make_workload, scheduler_cls
):
    """The execute stage's own equivalence: the batched local stage and the
    sequential reference stage produce identical outcomes under either
    scheduler, and only the batched service reports execute-stage sharing."""
    requests = make_workload(13, 24)
    batched_service = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, scheduler=scheduler_cls()
    )
    sequential_service = MalivaService(
        serving_maliva,
        translator=TWITTER_TRANSLATOR,
        scheduler=scheduler_cls(),
        execute=SequentialExecute(),
    )
    batched = batched_service.answer_many(requests)
    sequential = sequential_service.answer_many(requests)
    _assert_outcomes_identical(batched, sequential)
    assert batched_service.stats.n_execute_batches == 1
    assert batched_service.stats.execute_sharing.n_queries == len(requests)
    assert sequential_service.stats.n_execute_batches == 0
    report = batched_service.stats.to_dict()
    assert report["execute_sharing"]["n_batches"] == 1


def _mutation_rows(tweets, n_new: int = 40) -> dict:
    return {
        "id": np.arange(tweets.n_rows, tweets.n_rows + n_new),
        "text": ["fresh mutation tweet"] * n_new,
        "created_at": np.full(
            n_new, float(np.median(tweets.numeric("created_at")))
        ),
        "coordinates": np.tile(
            np.median(tweets.points("coordinates"), axis=0), (n_new, 1)
        ),
        "users_statues_count": np.zeros(n_new, dtype=np.int64),
        "users_followers_count": np.zeros(n_new, dtype=np.int64),
        "user_id": np.zeros(n_new, dtype=np.int64),
    }


def test_mutations_mid_stream_do_not_leak_stale_shared_state():
    """``Table.append_rows`` between stream micro-batches: the batched
    execute stage must not serve stale shared scans, probes, or bin layouts
    after the invalidation — outcomes stay identical to a sequential-execute
    twin receiving the same mutations at the same stream positions."""
    from repro.core import RewriteOptionSpace
    from repro.workloads import ExplorationSessionGenerator, TwitterWorkloadGenerator

    from ..conftest import TWITTER_ATTRS, build_trained_maliva, build_twitter_db

    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)

    def build_twin():
        database = build_twitter_db(
            n_tweets=2_500, n_users=125, sample_fraction=0.05
        )
        train = TwitterWorkloadGenerator(database, seed=21).generate(12)
        maliva = build_trained_maliva(
            database, space, train, qte="accurate", max_epochs=3, n_train=10
        )
        sessions = ExplorationSessionGenerator(database, seed=31).generate_many(
            4, n_steps=6
        )
        from repro.serving import interleave, requests_from_steps

        stream = interleave(
            requests_from_steps(steps, session_id)
            for session_id, steps in sessions.items()
        )
        return maliva, stream

    def stream_with_mutation(service, requests, mutate_at: int):
        for position, request in enumerate(requests):
            if position == mutate_at:
                tweets = service.maliva.database.table("tweets")
                service.append_rows("tweets", _mutation_rows(tweets))
            yield request

    maliva_a, stream_a = build_twin()
    maliva_b, stream_b = build_twin()
    assert [r.request_id for r in stream_a] == [r.request_id for r in stream_b]
    batched = maliva_a.service(translator=TWITTER_TRANSLATOR, stream_batch_size=6)
    sequential = maliva_b.service(
        translator=TWITTER_TRANSLATOR, stream_batch_size=6, execute=SequentialExecute()
    )
    mutate_at = 8  # lands inside the second micro-batch's assembly
    served_a = [
        outcome
        for _, outcome in batched.answer_stream(
            stream_with_mutation(batched, stream_a, mutate_at)
        )
    ]
    served_b = [
        outcome
        for _, outcome in sequential.answer_stream(
            stream_with_mutation(sequential, stream_b, mutate_at)
        )
    ]
    _assert_outcomes_identical(served_a, served_b)
    # The mutation really invalidated shared state mid-stream: the batched
    # service's decision cache took tag invalidations.
    assert batched.decision_cache_stats.invalidations > 0
    # ...at a cost counted in appended rows, not table rows: the 40 new
    # tweets sit inside the extent, so all three indexes were extended.
    assert batched.report()["engine_maintenance"] == {
        "rows_appended": 40,
        "texts_tokenized": 40,
        "indexes_extended": 3,
        "indexes_rebuilt": 0,
    }


def test_repeated_stream_matches_sequential_across_micro_batches(
    serving_maliva, make_workload
):
    """Passes over one stream reach the engine's scan memo from later
    micro-batches; outcomes stay those of the sequential reference."""
    requests = make_workload(17, 24)
    batched = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=8
    )
    sequential = MalivaService(
        serving_maliva,
        translator=TWITTER_TRANSLATOR,
        stream_batch_size=8,
        execute=SequentialExecute(),
    )
    for _ in range(3):
        served = [outcome for _, outcome in batched.answer_stream(iter(requests))]
        reference = [
            outcome for _, outcome in sequential.answer_stream(iter(requests))
        ]
        _assert_outcomes_identical(served, reference)
    memo = batched.report()["scan_memo"]
    assert memo["hits"] > 0
    assert set(memo) >= {"hits", "misses", "invalidations", "entries", "bytes_held"}
    assert "scan_memo" not in batched.report()["engine_caches"]


def test_third_pass_of_a_dashboard_runs_no_scan_and_no_histogram(
    serving_maliva, make_workload
):
    """Count guard: a fixed 64-view dashboard stream served twice puts every
    view's scan in the engine's scan memo, so a third pass runs no scan
    kernel and counts no histogram."""
    requests = make_workload(19, 64)
    service = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=8
    )
    for _ in range(2):
        list(service.answer_stream(iter(requests)))
    service.reset_stats()
    list(service.answer_stream(iter(requests)))
    sharing = service.stats.execute_sharing
    assert sharing.n_queries == len(requests)
    assert sharing.n_distinct_scans == 0
    assert sharing.n_bin_results == 0
    assert sharing.shared_scans == len(requests)
    assert service.report()["scan_memo"]["misses"] == 0
