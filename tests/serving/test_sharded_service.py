"""Sharded serving == single-engine serving, bit for bit.

Twin engines are built from identical seeds: one serves through the plain
:class:`MalivaService`, the other through a :class:`ScatterExecute` stage
(inline and real worker processes).  Every user-visible
outcome — viability, virtual times, result rows/bins, canonical work
counters — must match exactly under the deterministic profile; that is the
scatter/gather contract of DESIGN.md §4.3.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import Maliva, RewriteOptionSpace
from repro.serving import MalivaService, ScatterExecute, VizRequest
from repro.viz import TWITTER_TRANSLATOR
from repro.workloads import TwitterJoinWorkloadGenerator, TwitterWorkloadGenerator

from tests.conftest import (
    TWITTER_ATTRS,
    build_session_stream,
    build_trained_maliva,
    build_twitter_db,
)

#: Under the chaos pass (random injected faults) the *equivalence* asserts
#: must keep holding — that is the whole point — but exact routing counters
#: (scattered vs recovered vs fallback) legitimately shift with each death.
CHAOS = "REPRO_CHAOS_SEED" in os.environ


def _build_maliva(
    *,
    n_tweets: int = 1_200,
    dataset_seed: int = 11,
    max_epochs: int = 4,
    qte: str = "accurate",
) -> Maliva:
    database = build_twitter_db(
        n_tweets=n_tweets, n_users=60, dataset_seed=dataset_seed, engine_seed=2
    )
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    queries = TwitterWorkloadGenerator(database, seed=21).generate(20)
    return build_trained_maliva(
        database, space, queries, qte=qte, max_epochs=max_epochs, n_train=16
    )


@pytest.fixture(scope="module")
def twins():
    """Two independent, identically-seeded trained middlewares + a stream."""
    single = _build_maliva()
    sharded = _build_maliva()
    stream = build_session_stream(
        single.database, n_sessions=6, n_steps=6, seed=29
    )
    return single, sharded, stream


def _assert_outcomes_match(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.option_label == b.option_label
        assert a.planning_ms == b.planning_ms
        assert a.execution_ms == b.execution_ms
        assert a.viable == b.viable
        assert a.tau_ms == b.tau_ms
        assert a.result.obeyed_hints == b.result.obeyed_hints
        assert a.result.counters.as_dict() == b.result.counters.as_dict()
        assert a.result.base_ms == b.result.base_ms
        if a.result.row_ids is None:
            assert b.result.row_ids is None
        else:
            assert np.array_equal(a.result.row_ids, b.result.row_ids)
        assert a.result.bins == b.result.bins


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_rows_mode_matches_single_engine(twins, n_shards):
    single_maliva, sharded_maliva, stream = twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=n_shards, processes=False),
    )
    with sharded:
        _assert_outcomes_match(
            single.answer_many(stream), sharded.answer_many(stream)
        )
        # Warm pass: decision caches and shard caches are hot on both sides.
        _assert_outcomes_match(
            single.answer_many(stream), sharded.answer_many(stream)
        )
        shards = sharded.stats.shards
        assert shards is not None
        if not CHAOS:
            assert shards.n_scattered == 2 * len(stream)
            assert shards.n_fallback == 0
            assert set(shards.per_shard) == set(range(n_shards))
            for window in shards.per_shard.values():
                assert window.n_queries == 2 * len(stream)
                assert window.wall_s >= 0.0


def test_worker_processes_match_single_engine(twins):
    single_maliva, sharded_maliva, stream = twins
    short = stream[:12]
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=True),
    )
    with sharded:
        _assert_outcomes_match(
            single.answer_many(short), sharded.answer_many(short)
        )
        report = sharded.report()
        if not CHAOS:
            assert set(report["shard_caches"]) == {"0", "1"}
        assert report["service"]["shards"]["n_shards"] == 2


def test_stream_serving_matches_batch(twins):
    _single_maliva, sharded_maliva, stream = twins
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with sharded:
        batch_outcomes = sharded.answer_many(stream)
        streamed = [
            outcome
            for _request, outcome in sharded.answer_stream(
                iter(stream), stream_batch_size=5
            )
        ]
        _assert_outcomes_match(batch_outcomes, streamed)


def test_join_queries_fall_back_and_match():
    def build():
        database = build_twitter_db(
            n_tweets=700, n_users=40, dataset_seed=7, engine_seed=1
        )
        space = RewriteOptionSpace.join_space(TWITTER_ATTRS)
        queries = TwitterJoinWorkloadGenerator(database, seed=33).generate(12)
        maliva = build_trained_maliva(
            database, space, queries, qte="accurate", max_epochs=3, n_train=10
        )
        return maliva, queries

    single_maliva, queries = build()
    sharded_maliva, _ = build()
    requests = [
        VizRequest(payload=query, session_id=f"s{i % 3}", request_id=i)
        for i, query in enumerate(queries)
    ]
    single = single_maliva.service()
    sharded = MalivaService(
        sharded_maliva,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with sharded:
        _assert_outcomes_match(
            single.answer_many(requests), sharded.answer_many(requests)
        )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_fallback == len(requests)
        assert shards.n_scattered == 0  # joins never scatter, chaos or not


def _mutation_columns(database, n: int):
    tweets = database.table("tweets")
    return {
        column.name: tweets.column(column.name)[:n]
        for column in tweets.schema.columns
    }


def test_append_rows_stays_coherent():
    single_maliva = _build_maliva(n_tweets=600, dataset_seed=3, max_epochs=2)
    sharded_maliva = _build_maliva(n_tweets=600, dataset_seed=3, max_epochs=2)
    stream = build_session_stream(
        single_maliva.database, n_sessions=4, n_steps=4, seed=41
    )
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=3, processes=False),
    )
    with sharded:
        half = len(stream) // 2
        _assert_outcomes_match(
            single.answer_many(stream[:half]), sharded.answer_many(stream[:half])
        )
        single.append_rows("tweets", _mutation_columns(single_maliva.database, 20))
        sharded.append_rows("tweets", _mutation_columns(sharded_maliva.database, 20))
        assert sharded.stats.shards is not None
        assert sharded.stats.shards.n_syncs >= 1
        _assert_outcomes_match(
            single.answer_many(stream[half:]), sharded.answer_many(stream[half:])
        )


def test_direct_database_mutation_propagates_via_hook():
    """Cross-shard coherence holds even for engine-level mutations that
    bypass the service (the existing invalidation-hook contract)."""
    single_maliva = _build_maliva(n_tweets=500, dataset_seed=19, max_epochs=2)
    sharded_maliva = _build_maliva(n_tweets=500, dataset_seed=19, max_epochs=2)
    stream = build_session_stream(
        single_maliva.database, n_sessions=3, n_steps=4, seed=23
    )
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with sharded:
        single.answer_many(stream[:4])
        sharded.answer_many(stream[:4])
        # Mutate the engines directly — not through the services.
        single_maliva.database.append_rows(
            "tweets", _mutation_columns(single_maliva.database, 15)
        )
        sharded_maliva.database.append_rows(
            "tweets", _mutation_columns(sharded_maliva.database, 15)
        )
        _assert_outcomes_match(
            single.answer_many(stream[4:]), sharded.answer_many(stream[4:])
        )


def test_worker_failure_recovers_on_router(twins):
    """A failing shard no longer fails the batch: the round is drained, the
    affected entries re-execute on the router bit-identically, and the slot
    respawns warm so the next batch scatters across the full fleet again."""
    from repro.serving.faults import WorkerFault

    single_maliva, sharded_maliva, stream = twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=3, processes=False, respawn_backoff_s=0.0),
    )
    with sharded:
        requests = stream[:6]
        _assert_outcomes_match(
            single.answer_many(requests[:1]), sharded.answer_many(requests[:1])
        )

        def explode(*_args, **_kwargs):
            raise WorkerFault("boom")

        sharded.execute._fleet.live_slots()[1].handle.collect = explode
        _assert_outcomes_match(
            single.answer_many(requests), sharded.answer_many(requests)
        )
        assert not sharded.execute._closed
        shards = sharded.stats.shards
        assert shards is not None
        if not CHAOS:
            assert shards.n_worker_deaths == 1
            assert shards.per_shard[1].n_deaths == 1
            assert shards.n_recovered_entries >= 1
        # Next batch: the slot respawned warm and scatter resumes.
        scattered_before = shards.n_scattered
        _assert_outcomes_match(
            single.answer_many(requests), sharded.answer_many(requests)
        )
        if not CHAOS:
            assert shards.n_respawns == 1
            assert shards.per_shard[1].n_respawns == 1
            assert shards.n_scattered > scattered_before


def test_submit_failure_also_recovers(twins):
    """A dead worker surfacing at submit time gets the same drain-and-
    recover treatment as one failing at collect time."""
    from repro.serving.faults import WorkerFault

    single_maliva, sharded_maliva, stream = twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=3, processes=False, respawn_backoff_s=0.0),
    )
    with sharded:
        _assert_outcomes_match(
            single.answer_many(stream[:1]), sharded.answer_many(stream[:1])
        )

        def explode(_entries):
            raise WorkerFault("worker gone")

        sharded.execute._fleet.live_slots()[2].handle.submit_execute = explode
        _assert_outcomes_match(
            single.answer_many(stream[:4]), sharded.answer_many(stream[:4])
        )
        assert not sharded.execute._closed
        if not CHAOS:
            shards = sharded.stats.shards
            assert shards is not None
            assert shards.n_worker_deaths == 1


def test_planning_stays_on_the_router():
    """Shard workers only execute: their op table has no planning op, no
    fault can target one, and a cold stream moves the *router's* QTE
    memo."""
    from repro.serving.faults import FaultSpec
    from repro.serving.sharded import shard_ops

    assert set(shard_ops()) == {"init", "execute", "sync", "cache_stats"}
    with pytest.raises(ValueError):
        FaultSpec(op="plan", kind="crash")

    build = dict(n_tweets=600, dataset_seed=7, max_epochs=2, qte="sampling")
    single_maliva = _build_maliva(**build)
    sharded_maliva = _build_maliva(**build)
    stream = build_session_stream(
        single_maliva.database, n_sessions=3, n_steps=4, seed=53
    )
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )

    def lookups(report):
        caches = list(report["qte_caches"].values())
        return [cache["hits"] + cache["misses"] for cache in caches]

    with sharded:
        before = lookups(sharded.report())
        _assert_outcomes_match(
            single.answer_many(stream), sharded.answer_many(stream)
        )
        after = lookups(sharded.report())
    assert len(before) == 1  # the QTE selectivity memo
    assert all(now > then for then, now in zip(before, after))


def test_report_probes_shard_caches_under_the_setup_deadline(twins, monkeypatch):
    """A stats probe is a lifecycle op: it gets the fleet's setup deadline,
    not a request's."""
    from repro.serving.faults import FaultPlan
    from repro.serving.sharded import ShardHandle

    _single, sharded_maliva, _stream = twins
    deadlines = []
    cache_stats = ShardHandle.cache_stats

    def recording_cache_stats(handle, deadline_s=None):
        deadlines.append(deadline_s)
        return cache_stats(handle, deadline_s)

    monkeypatch.setattr(ShardHandle, "cache_stats", recording_cache_stats)
    stage = ScatterExecute(n_shards=2, processes=False, fault_plan=FaultPlan())
    with MalivaService(sharded_maliva, execute=stage) as sharded:
        assert set(sharded.report()["shard_caches"]) == {"0", "1"}
        fleet = stage._fleet
        assert fleet.setup_deadline_s() != fleet.call_deadline_s()
        assert deadlines == [fleet.setup_deadline_s()] * 2


def test_closed_service_refuses_work(twins):
    _single, sharded_maliva, stream = twins
    sharded = MalivaService(
        sharded_maliva,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    sharded.close()
    sharded.close()  # idempotent
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        sharded.answer_many(
            [VizRequest(payload=stream[0].payload, request_id=0)]
        )
