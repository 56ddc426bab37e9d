"""Replicated router tier: journaled failover, session routing, bit-identity.

The contract (DESIGN.md §4.7): N full router replicas behind a thin
dispatcher answer exactly like the single-engine service — and keep
doing so when a router process is killed mid-stream.  Every admitted
request is journaled before dispatch, so a death loses zero requests:
unacknowledged entries replay on a survivor (or the dispatcher itself)
bit-identically.  Replicas share no decisions: each plans what it has
not seen itself.

Every scenario runs a healthy single-engine twin alongside the
replicated service and asserts bit-identity via the same helper the
other equivalence suites use.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter

import pytest

from repro.errors import QueryError
from repro.serving import (
    AdmissionController,
    AsyncMalivaService,
    DispatchExecute,
    FifoScheduler,
    MalivaService,
    ScatterExecute,
    SessionAffinityScheduler,
)
from repro.serving.faults import FaultPlan, FaultSpec, WorkerFault
from repro.viz import TWITTER_TRANSLATOR

from tests.conftest import build_session_stream
from tests.serving.test_sharded_service import (
    CHAOS,
    _assert_outcomes_match,
    _build_maliva,
)


@pytest.fixture(scope="module")
def repl_twins():
    """Two identically-seeded trained middlewares + a session stream."""
    single = _build_maliva(n_tweets=800, dataset_seed=3, max_epochs=3)
    replicated = _build_maliva(n_tweets=800, dataset_seed=3, max_epochs=3)
    stream = build_session_stream(
        single.database, n_sessions=4, n_steps=5, seed=41
    )
    return single, replicated, stream


def _chunks(stream, size):
    return [stream[i : i + size] for i in range(0, len(stream), size)]


def _make_scheduler(name: str):
    return {"affinity": SessionAffinityScheduler, "fifo": FifoScheduler}[name]()


def _replicated(maliva, *, scheduler=None, admission=None, **fleet_kwargs):
    """The dispatcher: a plain service over a :class:`DispatchExecute` stage."""
    fleet_kwargs.setdefault("respawn_backoff_s", 0.0)
    return MalivaService(
        maliva,
        translator=TWITTER_TRANSLATOR,
        scheduler=scheduler,
        admission=admission,
        execute=DispatchExecute(**fleet_kwargs),
    )


# ----------------------------------------------------------------------
# Healthy-fleet equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_routers", [1, 2, 3])
def test_inline_fleet_matches_single_engine(repl_twins, n_routers):
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    repl = _replicated(repl_maliva, n_routers=n_routers, processes=False)
    with repl:
        _assert_outcomes_match(
            single.answer_many(stream), repl.answer_many(stream)
        )
        # Warm pass: replica decision caches and engine caches are hot.
        _assert_outcomes_match(
            single.answer_many(stream), repl.answer_many(stream)
        )
        routers = repl.stats.routers
        assert routers is not None
        assert repl.execute._journal.depth == 0
        if not CHAOS:
            assert routers.n_dispatched == 2 * len(stream)
            assert routers.n_local == 0
            assert sum(
                window.n_requests for window in routers.per_router.values()
            ) == 2 * len(stream)


@pytest.mark.parametrize("scheduler_name", ["affinity", "fifo"])
def test_inline_fleet_matches_under_both_schedulers(repl_twins, scheduler_name):
    """Each router re-schedules its sub-batch with the service's own
    policy, so the fleet answers like the plain service under either."""
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(
        translator=TWITTER_TRANSLATOR, scheduler=_make_scheduler(scheduler_name)
    )
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=False,
        scheduler=_make_scheduler(scheduler_name),
    )
    with repl:
        for chunk in _chunks(stream, 5):
            _assert_outcomes_match(
                single.answer_many(chunk), repl.answer_many(chunk)
            )


def test_journal_acks_every_dispatched_request(repl_twins):
    _, repl_maliva, stream = repl_twins
    repl = _replicated(repl_maliva, n_routers=2, processes=False)
    with repl:
        repl.answer_many(stream)
        assert repl.execute._journal.depth == 0
        assert repl.execute._journal.next_seq == len(stream)
        routers = repl.stats.routers
        assert routers is not None
        assert routers.journal_high_water == len(stream)
        report = repl.report()
        assert report["journal"]["depth"] == 0
        assert set(report["router_replicas"]) <= {"0", "1"}


# ----------------------------------------------------------------------
# Injected faults: serve-op crash/garble replays bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("processes", [False, True])
@pytest.mark.parametrize("kind", ["crash", "garble"])
def test_router_failure_mid_serve_is_bit_identical(repl_twins, processes, kind):
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="serve", kind=kind, shard_id=1, nth=2)])
    repl = _replicated(
        repl_maliva, n_routers=2, processes=processes, fault_plan=plan
    )
    with repl:
        for chunk in _chunks(stream, 5):
            _assert_outcomes_match(
                single.answer_many(chunk), repl.answer_many(chunk)
            )
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_router_deaths >= 1
        assert routers.n_replayed >= 1
        assert repl.execute._journal.depth == 0


def test_flapping_router_trips_breaker_and_rebalances(repl_twins):
    """A router that keeps dying exhausts its respawn budget, is retired
    by the breaker, its sessions rebalance, and admission's watermark
    shrinks to the surviving capacity fraction."""
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    controller = AdmissionController(load_watermark_ms=1e9, mode="shed")
    plan = FaultPlan(
        [FaultSpec(op="serve", kind="crash", shard_id=1, nth=1, repeat=True)]
    )
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=False,
        max_respawns=1,
        fault_plan=plan,
        admission=controller,
    )
    with repl:
        for chunk in _chunks(stream, 4):
            _assert_outcomes_match(
                single.answer_many(chunk), repl.answer_many(chunk)
            )
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_retired >= 1
        assert routers.per_router[1].breaker_open
        assert routers.n_rebalances >= 1
        # Half the fleet is gone: verdicts shift against half the watermark.
        assert controller.capacity_fraction == pytest.approx(0.5)
        assert controller.effective_watermark_ms == pytest.approx(5e8)
        # Every surviving request was served by router 0 or replayed there.
        assert repl.execute._journal.depth == 0


def test_whole_fleet_retired_serves_on_dispatcher(repl_twins):
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="serve", kind="crash", nth=1, repeat=True)])
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=False,
        max_respawns=0,
        fault_plan=plan,
    )
    with repl:
        for chunk in _chunks(stream, 4):
            _assert_outcomes_match(
                single.answer_many(chunk), repl.answer_many(chunk)
            )
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_retired == 2
        assert routers.n_local > 0
        assert repl.execute._journal.depth == 0
        assert not repl.execute._closed


# ----------------------------------------------------------------------
# The acceptance scenario: kill -9 a real router process mid-stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler_name", ["affinity", "fifo"])
def test_killed_router_process_loses_zero_requests(repl_twins, scheduler_name):
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(
        translator=TWITTER_TRANSLATOR, scheduler=_make_scheduler(scheduler_name)
    )
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=True,
        scheduler=_make_scheduler(scheduler_name),
    )
    with repl:
        chunk = stream[:6]
        _assert_outcomes_match(
            single.answer_many(chunk), repl.answer_many(chunk)
        )
        # Murder a live router out from under the dispatcher.
        victim = repl.execute._group.live_slots()[0]
        victim.handle._process.kill()
        victim.handle._process.join(timeout=5.0)
        # The very next batch completes — zero requests lost, outcomes
        # bit-identical to the healthy single-engine twin.
        _assert_outcomes_match(
            single.answer_many(chunk), repl.answer_many(chunk)
        )
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_router_deaths >= 1
        assert routers.n_replayed >= 1
        assert repl.execute._journal.depth == 0
        assert not repl.execute._closed
        # And the one after that dispatches through the respawned router.
        _assert_outcomes_match(
            single.answer_many(chunk), repl.answer_many(chunk)
        )
        assert routers.n_respawns >= 1


@pytest.mark.parametrize("scheduler_name", ["affinity", "fifo"])
def test_killed_router_async_stream_loses_zero_requests(
    repl_twins, scheduler_name
):
    """The same kill -9, mid-*async*-stream: the async front end's chunk
    completes through journal replay, bit-identical to the sync twin."""
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(
        translator=TWITTER_TRANSLATOR, scheduler=_make_scheduler(scheduler_name)
    )
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=True,
        scheduler=_make_scheduler(scheduler_name),
    )

    async def scenario():
        pairs = []
        async with AsyncMalivaService(repl) as tier:
            async for pair in tier.answer_stream(
                iter(stream), stream_batch_size=5
            ):
                pairs.append(pair)
                if len(pairs) == 5:
                    # First chunk landed; kill a live router while the
                    # pipeline is still streaming.
                    victim = repl.execute._group.live_slots()[0]
                    victim.handle._process.kill()
                    victim.handle._process.join(timeout=5.0)
        return pairs

    with repl:
        sync_pairs = list(single.answer_stream(stream, stream_batch_size=5))
        async_pairs = asyncio.run(scenario())
        assert [r for r, _ in sync_pairs] == [r for r, _ in async_pairs]
        _assert_outcomes_match(
            [o for _, o in sync_pairs], [o for _, o in async_pairs]
        )
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_router_deaths >= 1
        assert routers.n_replayed >= 1
        assert repl.execute._journal.depth == 0


# ----------------------------------------------------------------------
# Replicas plan alone
# ----------------------------------------------------------------------
def test_replicas_plan_alone_and_receive_only_serve_ops(repl_twins):
    """The dispatcher sends a healthy fleet one ``serve`` per target
    router per batch and nothing else, and a replica that has not seen a
    query replans it — to the same outcome the single engine gives."""
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    # An empty plan injects nothing but counts every op the fleet is sent.
    plan = FaultPlan([])
    repl = _replicated(repl_maliva, n_routers=2, processes=False, fault_plan=plan)
    sessions = repl.execute._session_router

    def serve(batch):
        before = dict(plan._counts)
        outcomes = repl.answer_many(batch)
        sent = {
            key: count - before.get(key, 0)
            for key, count in plan._counts.items()
            if count != before.get(key, 0)
        }
        targets = {sessions[request.effective_session()] for request in batch}
        assert sent == {(router_id, "serve"): 1 for router_id in targets}
        return outcomes

    with repl:
        first = [
            dataclasses.replace(request, session_id="replica-a")
            for request in stream[:6]
        ]
        second = [
            dataclasses.replace(request, session_id="replica-b")
            for request in stream[:6]
        ]
        _assert_outcomes_match(single.answer_many(first), serve(first))
        # Session B sends A's payloads and lands on the other router, which
        # has never seen them: it plans them itself.
        _assert_outcomes_match(single.answer_many(second), serve(second))
        assert sessions["replica-a"] != sessions["replica-b"]
        tail = repl.stats.records[-len(second):]
        assert not any(record.decision_cached for record in tail)
        for chunk in _chunks(stream, 5):
            _assert_outcomes_match(single.answer_many(chunk), serve(chunk))
        assert {op for _, op in plan._counts} == {"serve"}


def test_session_counts_match_a_recount_through_death_and_retirement(repl_twins):
    """``_route`` keeps per-router session counts instead of recounting
    every session it has routed; each choice equals the recount's."""
    _, repl_maliva, _ = repl_twins
    repl = _replicated(
        repl_maliva,
        n_routers=2,
        processes=False,
        max_respawns=1,
        fault_plan=FaultPlan([]),
    )
    with repl:
        stage = repl.execute
        group = stage._group

        def route(session_id):
            live_ids = [slot.shard_id for slot in group.live_slots()]
            assigned = stage._session_router.get(session_id)
            expected = assigned
            if assigned not in live_ids:
                recount = Counter(stage._session_router.values())
                expected = min(live_ids, key=lambda r: (recount[r], r))
            assert stage._route(session_id) == expected
            assert +stage._router_sessions == Counter(stage._session_router.values())

        for index in range(10):
            route(f"s{index}")
        group.record_death(group.slots[1], WorkerFault("killed"))
        for index in range(10, 14):
            route(f"s{index}")
        route("s1")  # was on router 1: rebalances
        stage._ensure_routers()  # respawns router 1 (budget 1)
        for index in range(14, 20):
            route(f"s{index}")
        assert Counter(stage._session_router.values()) == {0: 10, 1: 10}
        group.record_death(group.slots[1], WorkerFault("killed"))
        stage._ensure_routers()  # budget spent: retired
        assert group.slots[1].retired
        for index in range(20):
            route(f"s{index}")
        routers = repl.stats.routers
        assert routers is not None
        assert Counter(stage._session_router.values()) == {0: 20}
        assert routers.n_rebalances == 11
        assert routers.n_retired == 1


# ----------------------------------------------------------------------
# Catalog coherence across replicas
# ----------------------------------------------------------------------
def test_mutation_syncs_every_replica(repl_twins):
    single_maliva, repl_maliva, stream = repl_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    repl = _replicated(repl_maliva, n_routers=2, processes=False)
    with repl:
        half = len(stream) // 2
        _assert_outcomes_match(
            single.answer_many(stream[:half]), repl.answer_many(stream[:half])
        )
        tweets = single_maliva.database.table("tweets")
        take = {
            column.name: tweets.column(column.name)[:20]
            for column in tweets.schema.columns
        }
        single.append_rows("tweets", dict(take))
        repl.append_rows("tweets", dict(take))
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_syncs >= 1
        _assert_outcomes_match(
            single.answer_many(stream[half:]), repl.answer_many(stream[half:])
        )


# ----------------------------------------------------------------------
# Validation and lifecycle
# ----------------------------------------------------------------------
def test_replicated_validation(repl_twins):
    _, repl_maliva, _ = repl_twins
    with pytest.raises(QueryError):
        MalivaService(
            repl_maliva,
            execute=DispatchExecute(n_routers=0, processes=False),
        )
    with pytest.raises(QueryError):
        MalivaService(
            repl_maliva,
            execute=DispatchExecute(processes=False, rpc_deadline_ms=0.0),
        )
    with pytest.raises(QueryError):
        MalivaService(
            repl_maliva,
            execute=DispatchExecute(processes=False, deadline_tau_factor=-1.0),
        )
    with pytest.raises(QueryError):
        MalivaService(
            repl_maliva,
            quality_fn=lambda *args: 1.0,
            execute=DispatchExecute(processes=False),
        )


BAD_BUDGETS = [0.0, -5.0, float("nan")]


@pytest.mark.parametrize("tau_ms", BAD_BUDGETS, ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("stage", ["local", "scatter", "dispatch"])
def test_bad_budget_is_refused_before_dispatch(repl_twins, stage, tau_ms):
    """One request with an unusable budget fails its batch with the
    single engine's QueryError, before admission and dispatch: no worker
    or router dies for it, and the next batch is served by the fleet."""
    _, repl_maliva, stream = repl_twins
    # An explicit empty fault plan keeps the chaos pass out of the counts.
    execute = {
        "local": lambda: None,
        "scatter": lambda: ScatterExecute(
            n_shards=2, processes=False, fault_plan=FaultPlan()
        ),
        "dispatch": lambda: DispatchExecute(
            n_routers=2, processes=False, fault_plan=FaultPlan()
        ),
    }[stage]()
    service = MalivaService(
        repl_maliva, translator=TWITTER_TRANSLATOR, execute=execute
    )
    batch = list(stream[:5])
    batch[2] = dataclasses.replace(batch[2], tau_ms=tau_ms)
    with service:
        with pytest.raises(QueryError, match="time budget"):
            service.answer_many(batch)
        assert len(service.answer_many(stream[:5])) == 5
        shards, routers = service.stats.shards, service.stats.routers
        if shards is not None:
            assert shards.n_worker_deaths == 0
        if routers is not None:
            assert routers.n_router_deaths == 0
            assert routers.n_local == 0
            assert routers.n_dispatched == 5


def test_reset_stats_resets_fleet_window(repl_twins):
    _, repl_maliva, stream = repl_twins
    repl = _replicated(repl_maliva, n_routers=2, processes=False)
    with repl:
        repl.answer_many(stream[:4])
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_dispatched > 0
        repl.reset_stats()
        routers = repl.stats.routers
        assert routers is not None
        assert routers.n_dispatched == 0
        assert routers.journal_high_water == 0
        # The fleet still serves after the reset broadcast.
        assert len(repl.answer_many(stream[:4])) == 4


def test_close_is_idempotent_and_reaps(repl_twins):
    _, repl_maliva, stream = repl_twins
    repl = _replicated(repl_maliva, n_routers=2, processes=True)
    with repl:
        repl.answer_many(stream[:4])
        processes = [
            slot.handle._process for slot in repl.execute._group.live_slots()
        ]
    repl.close()  # second close: no-op
    for process in processes:
        assert not process.is_alive()
