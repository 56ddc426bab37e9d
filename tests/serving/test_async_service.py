"""Async front end: bit-identical twins, queues, and backpressure.

The async tier (DESIGN.md §4.6) runs every micro-batch through the
wrapped service's synchronous pipeline, so it must answer bit-identically
to the synchronous stream with the same chunking.  These tests pin that
twin contract for single-engine and sharded deployments under both
schedulers (and, via the chaos fixture, under ``REPRO_CHAOS_SEED`` fault
plans), plus the session-queue ``submit()`` path: bounded depth,
backpressure waits, queued virtual cost feeding admission, the fair
drain, and a failing chunk failing only its own requests.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.errors import QueryError, ServiceOverloadError
from repro.serving import (
    AdmissionController,
    AsyncMalivaService,
    FifoScheduler,
    MalivaService,
    ScatterExecute,
    SessionAffinityScheduler,
    VizRequest,
)
from repro.viz import TWITTER_TRANSLATOR

from tests.conftest import build_session_stream
from tests.serving.test_sharded_service import (
    _assert_outcomes_match,
    _build_maliva,
)

CHUNK = 4


@pytest.fixture(scope="module")
def async_twins():
    """Two identically-seeded trained middlewares + a session stream."""
    sync_side = _build_maliva(n_tweets=800, dataset_seed=7, max_epochs=3)
    async_side = _build_maliva(n_tweets=800, dataset_seed=7, max_epochs=3)
    stream = build_session_stream(
        sync_side.database, n_sessions=4, n_steps=5, seed=37
    )
    return sync_side, async_side, stream


def _make_scheduler(name: str):
    return {"affinity": SessionAffinityScheduler, "fifo": FifoScheduler}[name]()


def _async_pairs(service, stream, **kwargs):
    """Drive a full stream through the async tier on a fresh event loop."""

    async def scenario():
        async with AsyncMalivaService(service) as tier:
            return [
                pair
                async for pair in tier.answer_stream(iter(stream), **kwargs)
            ]

    return asyncio.run(scenario())


def _assert_record_twins(sync_stats, async_stats):
    """The per-request accounting must match, not just the outcomes."""
    assert len(sync_stats.records) == len(async_stats.records)
    for a, b in zip(sync_stats.records, async_stats.records):
        assert a.session_id == b.session_id
        assert a.tau_ms == b.tau_ms
        assert a.planning_ms == b.planning_ms
        assert a.execution_ms == b.execution_ms
        assert a.viable == b.viable
        assert a.decision_cached == b.decision_cached
    assert sync_stats.n_shed == async_stats.n_shed
    assert sync_stats.n_tau_degraded == async_stats.n_tau_degraded


@pytest.mark.parametrize("scheduler_name", ["affinity", "fifo"])
def test_async_single_engine_matches_sync(async_twins, scheduler_name):
    """The async stream answers bit-identically to the sync stream,
    chunk for chunk, under either scheduling policy."""
    sync_maliva, async_maliva, stream = async_twins
    sync_service = MalivaService(
        sync_maliva,
        translator=TWITTER_TRANSLATOR,
        scheduler=_make_scheduler(scheduler_name),
    )
    async_backend = MalivaService(
        async_maliva,
        translator=TWITTER_TRANSLATOR,
        scheduler=_make_scheduler(scheduler_name),
    )
    sync_pairs = list(sync_service.answer_stream(stream, stream_batch_size=CHUNK))
    async_pairs = _async_pairs(async_backend, stream, stream_batch_size=CHUNK)

    assert [r for r, _ in sync_pairs] == [r for r, _ in async_pairs]
    _assert_outcomes_match(
        [o for _, o in sync_pairs], [o for _, o in async_pairs]
    )
    _assert_record_twins(sync_service.stats, async_backend.stats)


def test_async_sharded_matches_sync_sharded(async_twins):
    """Async serving over the scatter stage stays bit-identical to sync
    serving over it."""
    sync_maliva, async_maliva, stream = async_twins
    sync_service = MalivaService(
        sync_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    async_backend = MalivaService(
        async_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with sync_service, async_backend:
        sync_pairs = list(
            sync_service.answer_stream(stream, stream_batch_size=CHUNK)
        )
        async_pairs = _async_pairs(async_backend, stream, stream_batch_size=CHUNK)
        _assert_outcomes_match(
            [o for _, o in sync_pairs], [o for _, o in async_pairs]
        )
        _assert_record_twins(sync_service.stats, async_backend.stats)


def test_async_sharded_matches_sync_with_processes(async_twins):
    """Same twin contract with real worker processes: replies are
    collected bit-identically."""
    sync_maliva, async_maliva, stream = async_twins
    short = stream[:10]
    sync_service = MalivaService(
        sync_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=True),
    )
    async_backend = MalivaService(
        async_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=True),
    )
    with sync_service, async_backend:
        sync_pairs = list(
            sync_service.answer_stream(short, stream_batch_size=CHUNK)
        )
        async_pairs = _async_pairs(async_backend, short, stream_batch_size=CHUNK)
        _assert_outcomes_match(
            [o for _, o in sync_pairs], [o for _, o in async_pairs]
        )


def test_async_answer_many_matches_sync(async_twins):
    """``answer_many`` is one chunk: same batch semantics."""
    sync_maliva, async_maliva, stream = async_twins
    chunk = stream[:6]
    sync_service = MalivaService(sync_maliva, translator=TWITTER_TRANSLATOR)
    async_backend = MalivaService(async_maliva, translator=TWITTER_TRANSLATOR)

    async def scenario():
        async with AsyncMalivaService(async_backend) as tier:
            return await tier.answer_many(chunk)

    _assert_outcomes_match(sync_service.answer_many(chunk), asyncio.run(scenario()))


def test_submit_backpressure_and_queue_admission(async_twins):
    """Bounded session queues: submitters beyond the depth limit wait,
    queued cost charges the admission load, and draining releases it."""
    _, maliva, stream = async_twins
    controller = AdmissionController(load_watermark_ms=1e9, mode="shed")
    service = MalivaService(
        maliva,
        translator=TWITTER_TRANSLATOR,
        admission=controller,
        stream_batch_size=4,
    )
    requests = [
        dataclasses.replace(request, session_id="s0") for request in stream[:12]
    ]

    async def scenario():
        async with AsyncMalivaService(service, session_queue_limit=2) as tier:
            outcomes = await asyncio.gather(
                *(tier.submit(request) for request in requests)
            )
            await tier.drain()
            return outcomes

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == len(requests)
    assert all(outcome.result is not None for outcome in outcomes)
    stats = service.stats
    assert stats.n_backpressure_waits > 0
    assert stats.queue_peak_depth >= 1
    snapshot = controller.snapshot()
    assert snapshot["n_enqueued"] == len(requests)
    assert snapshot["queued_ms"] == 0.0  # every charge was dequeued
    assert controller.inflight_ms == 0.0


def test_async_answer_one_raises_shed(async_twins):
    """A shed surfaces as the request's own overload error, like sync."""
    _, maliva, stream = async_twins
    controller = AdmissionController(
        load_watermark_ms=10.0, mode="shed", shed_headroom=1.0
    )
    service = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, admission=controller
    )
    controller.inflight_ms = 50.0  # synthetic in-flight backlog

    async def scenario():
        async with AsyncMalivaService(service) as tier:
            await tier.answer_one(stream[0])

    with pytest.raises(ServiceOverloadError) as excinfo:
        asyncio.run(scenario())
    assert excinfo.value.retry_after_ms == pytest.approx(40.0)


def test_async_stream_shed_markers(async_twins):
    """Mid-chunk sheds pair positionally through the async tier too."""
    _, maliva, stream = async_twins
    from tests.serving.test_stream_admission import _ShedAtPositions

    service = MalivaService(
        maliva,
        translator=TWITTER_TRANSLATOR,
        admission=_ShedAtPositions({1}),
    )
    chunk = stream[:4]
    pairs = _async_pairs(
        service, chunk, stream_batch_size=4, shed_markers=True
    )
    assert [r for r, _ in pairs] == list(chunk)
    assert isinstance(pairs[1][1], ServiceOverloadError)
    for position, (request, result) in enumerate(pairs):
        if position != 1:
            assert result.tau_ms == request.effective_tau(service.default_tau_ms)


def test_async_close_rejects_new_submissions(async_twins):
    """close() quiesces the batcher; later submits fail fast."""
    _, maliva, stream = async_twins
    service = MalivaService(maliva, translator=TWITTER_TRANSLATOR)

    async def scenario():
        tier = AsyncMalivaService(service)
        outcome = await tier.answer_one(stream[0])
        await tier.close()
        await tier.close()  # idempotent
        with pytest.raises(QueryError):
            await tier.submit(stream[0])
        return outcome

    outcome = asyncio.run(scenario())
    assert outcome.result is not None


def test_fair_drain_prevents_session_starvation(async_twins):
    """A bursty session cannot starve a light one: micro-batches assemble
    round-robin across sessions, so the light session's lone request
    rides the *first* chunk instead of waiting behind the whole burst."""
    _, maliva, stream = async_twins
    service = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=4
    )
    burst = [
        dataclasses.replace(request, session_id="heavy")
        for request in stream[:12]
    ]
    light = dataclasses.replace(stream[12], session_id="light")

    async def scenario():
        async with AsyncMalivaService(
            service, session_queue_limit=32
        ) as tier:
            # All thirteen requests enqueue before the batcher drains:
            # each submit parks on its future without yielding in between.
            return await asyncio.gather(
                *(tier.submit(request) for request in burst),
                tier.submit(light),
            )

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 13
    assert all(outcome.result is not None for outcome in outcomes)
    positions = [
        index
        for index, record in enumerate(service.stats.records)
        if record.session_id == "light"
    ]
    # Regression: the FIFO drain served "light" dead last (position 12);
    # the fair drain folds it into the first micro-batch.
    assert positions and positions[0] < service.stream_batch_size


def test_failing_chunk_fails_only_its_own_requests(async_twins):
    """A chunk that raises settles its own futures with the error, like
    sync ``answer_many`` raising for its batch; the batcher then serves
    the queued requests behind it."""
    _, maliva, stream = async_twins
    service = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=4
    )
    good = [
        dataclasses.replace(request, session_id="good") for request in stream[:12]
    ]
    bad = VizRequest(payload=42, session_id="bad")

    async def scenario():
        async with AsyncMalivaService(service) as tier:
            # Every request enqueues before the batcher runs, so the first
            # fair chunk is the bad request plus three good ones.
            return await asyncio.gather(
                tier.submit(bad),
                *(tier.submit(request) for request in good),
                return_exceptions=True,
            )

    results = asyncio.run(scenario())
    assert all(isinstance(result, QueryError) for result in results[:4])
    assert all(result.result is not None for result in results[4:])
    assert len(service.stats.records) == 9


def test_bad_budget_is_refused_at_submit(async_twins):
    """An unusable budget is refused when submitted, before it is queued:
    the requests that would have shared its chunk are all served."""
    _, maliva, stream = async_twins
    service = MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=4
    )
    good = [
        dataclasses.replace(request, session_id="good") for request in stream[:3]
    ]
    bad = dataclasses.replace(stream[3], session_id="bad", tau_ms=float("nan"))

    async def scenario():
        async with AsyncMalivaService(service) as tier:
            return await asyncio.gather(
                tier.submit(bad),
                *(tier.submit(request) for request in good),
                return_exceptions=True,
            )

    results = asyncio.run(scenario())
    assert isinstance(results[0], QueryError)
    assert all(result.result is not None for result in results[1:])
    assert len(service.stats.records) == 3


def test_reset_stats_clears_async_window_counters(async_twins):
    """reset_stats() replaces the stats object wholesale, so the async
    tier's queue-depth peak and backpressure-wait counters restart too."""
    _, maliva, stream = async_twins
    service = MalivaService(maliva, translator=TWITTER_TRANSLATOR)
    requests = [
        dataclasses.replace(request, session_id="s0") for request in stream[:6]
    ]

    async def scenario():
        async with AsyncMalivaService(service, session_queue_limit=1) as tier:
            await asyncio.gather(*(tier.submit(request) for request in requests))
            await tier.drain()

    asyncio.run(scenario())
    assert service.stats.queue_peak_depth >= 1
    assert service.stats.n_backpressure_waits >= 1
    service.reset_stats()
    assert service.stats.queue_peak_depth == 0
    assert service.stats.n_backpressure_waits == 0
