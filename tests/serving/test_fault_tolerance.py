"""Fault tolerance: a dying fleet serves the exact same answers.

The recovery contract (DESIGN.md §4.5): worker crashes, hangs, and
garbled replies are absorbed by the shard router — affected entries
re-execute on the router engine bit-identically, dead workers respawn
warm from the live catalog, flapping shards trip a circuit breaker and
the fleet rebalances — and none of it is visible in a single outcome.
Every scenario here runs a healthy single-engine twin alongside the
faulted sharded service and asserts bit-identity via the same helper the
equivalence suites use.

Admission control (overload degrade/shed) is covered at both the
controller unit level and through the service pipeline.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceOverloadError
from repro.serving import (
    AdmissionController,
    DispatchExecute,
    MalivaService,
    ScatterExecute,
)
from repro.serving.faults import (
    CRASH,
    FaultPlan,
    FaultSpec,
    WorkerFault,
    WorkerTimeout,
)
from repro.viz import TWITTER_TRANSLATOR

from tests.conftest import build_session_stream
from tests.serving.test_sharded_service import (
    _assert_outcomes_match,
    _build_maliva,
)


@pytest.fixture(scope="module")
def ft_twins():
    """Two identically-seeded trained middlewares + a session stream."""
    single = _build_maliva(n_tweets=800, dataset_seed=5, max_epochs=3)
    sharded = _build_maliva(n_tweets=800, dataset_seed=5, max_epochs=3)
    stream = build_session_stream(
        single.database, n_sessions=4, n_steps=5, seed=31
    )
    return single, sharded, stream


def _chunks(stream, size):
    return [stream[i : i + size] for i in range(0, len(stream), size)]


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
def test_fault_plan_counts_router_side():
    plan = FaultPlan(
        [
            FaultSpec(op="execute", kind="crash", shard_id=1, nth=2),
            FaultSpec(op="sync", kind="garble", repeat=True, nth=3),
        ]
    )
    assert plan.action_for(1, "execute") is None
    assert plan.action_for(0, "execute") is None  # other shard untouched
    assert plan.action_for(1, "execute") == "crash"  # the 2nd call, exactly
    assert plan.action_for(1, "execute") is None  # one-shot
    assert plan.action_for(0, "sync") is None
    assert plan.action_for(0, "sync") is None
    assert plan.action_for(0, "sync") == "garble"  # from the 3rd on...
    assert plan.action_for(0, "sync") == "garble"  # ...repeatedly


def test_lifecycle_ops_are_never_faulted():
    """An "any" spec must not crash init/stop — a respawned worker could
    otherwise never come back up."""
    plan = FaultPlan([FaultSpec(op="any", kind="crash", nth=1, repeat=True)])
    assert plan.action_for(0, "init") is None
    assert plan.action_for(0, "stop") is None
    assert plan.action_for(0, "execute") == "crash"


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(op="execute", kind="segfault")
    with pytest.raises(ValueError):
        FaultSpec(op="reboot", kind="crash")
    with pytest.raises(ValueError):
        FaultSpec(op="execute", kind="crash", nth=0)


# ----------------------------------------------------------------------
# Crash / garble / hang mid-execute: batch completes bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("processes", [False, True])
@pytest.mark.parametrize("kind", ["crash", "garble"])
def test_worker_failure_mid_execute_is_bit_identical(ft_twins, processes, kind):
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="execute", kind=kind, shard_id=1, nth=2)])
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=3,
            processes=processes,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        for chunk in _chunks(stream, 5):
            _assert_outcomes_match(
                single.answer_many(chunk), sharded.answer_many(chunk)
            )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_worker_deaths >= 1
        assert shards.per_shard[1].n_deaths >= 1
        assert shards.n_recovered_entries >= 1
        # The slot respawned warm and later batches scattered through it.
        assert shards.n_respawns >= 1
        assert not sharded.execute._closed


def test_inline_hang_surfaces_as_timeout(ft_twins):
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="execute", kind="hang", shard_id=0, nth=1)])
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=2,
            processes=False,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        for chunk in _chunks(stream[:10], 5):
            _assert_outcomes_match(
                single.answer_many(chunk), sharded.answer_many(chunk)
            )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_worker_deaths >= 1


def test_hang_past_rpc_deadline_recovers(ft_twins):
    """A real worker process sleeping past the deadline is declared dead;
    the batch completes on the router and the slot respawns."""
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="execute", kind="hang", shard_id=1, nth=1)])
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=2,
            processes=True,
            rpc_deadline_ms=400.0,
            deadline_tau_factor=0.0,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        chunk = stream[:5]
        _assert_outcomes_match(
            single.answer_many(chunk), sharded.answer_many(chunk)
        )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_worker_deaths >= 1
        # Next batch: respawned and scattering again.
        _assert_outcomes_match(
            single.answer_many(chunk), sharded.answer_many(chunk)
        )
        assert shards.n_respawns >= 1


@pytest.mark.parametrize("op", ["sync"])
def test_crash_during_coherence_sync_recovers(op):
    """A worker dying while absorbing a catalog sync is replaced by a warm
    respawn built from the live catalog — the mutation is never lost."""
    single_maliva = _build_maliva(n_tweets=500, dataset_seed=23, max_epochs=2)
    sharded_maliva = _build_maliva(n_tweets=500, dataset_seed=23, max_epochs=2)
    stream = build_session_stream(
        single_maliva.database, n_sessions=3, n_steps=4, seed=47
    )
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op=op, kind="crash", shard_id=0, nth=1)])
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=2,
            processes=False,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        half = len(stream) // 2
        _assert_outcomes_match(
            single.answer_many(stream[:half]), sharded.answer_many(stream[:half])
        )
        tweets = single_maliva.database.table("tweets")
        take = {
            column.name: tweets.column(column.name)[:20]
            for column in tweets.schema.columns
        }
        single.append_rows("tweets", dict(take))
        sharded.append_rows("tweets", dict(take))
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_worker_deaths >= 1
        _assert_outcomes_match(
            single.answer_many(stream[half:]), sharded.answer_many(stream[half:])
        )
        assert shards.n_respawns >= 1


# ----------------------------------------------------------------------
# Circuit breaker and rebalancing
# ----------------------------------------------------------------------
def test_flapping_shard_trips_breaker_and_rebalances(ft_twins):
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan(
        [FaultSpec(op="execute", kind="crash", shard_id=0, nth=1, repeat=True)]
    )
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=3,
            processes=False,
            max_respawns=2,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        for chunk in _chunks(stream, 4):
            _assert_outcomes_match(
                single.answer_many(chunk), sharded.answer_many(chunk)
            )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_retired == 1
        assert shards.per_shard[0].breaker_open
        assert shards.n_rebalances >= 1
        assert shards.n_respawns == 2  # budget spent flapping
        assert sharded.execute._slots[0].retired
        # Survivors keep scattering after the rebalance.
        before = shards.n_scattered
        _assert_outcomes_match(
            single.answer_many(stream[:4]), sharded.answer_many(stream[:4])
        )
        assert shards.n_scattered > before
        assert not sharded.execute._closed


def test_whole_fleet_retired_serves_from_router(ft_twins):
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    plan = FaultPlan([FaultSpec(op="execute", kind="crash", nth=1, repeat=True)])
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(
            n_shards=2,
            processes=False,
            max_respawns=0,
            respawn_backoff_s=0.0,
            fault_plan=plan,
        ),
    )
    with sharded:
        for chunk in _chunks(stream, 4):
            _assert_outcomes_match(
                single.answer_many(chunk), sharded.answer_many(chunk)
            )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_retired == 2
        assert not sharded.execute._active_slots()
        assert not sharded.execute._closed


@pytest.mark.parametrize("tier", ["sharded", "replicated"])
def test_sync_with_whole_fleet_retired_is_not_counted(tier):
    """A catalog change after every worker retired reaches no one: no sync
    is counted, and the router alone serves the mutated table exactly."""
    single_maliva = _build_maliva(n_tweets=500, dataset_seed=13, max_epochs=2)
    fleet_maliva = _build_maliva(n_tweets=500, dataset_seed=13, max_epochs=2)
    stream = build_session_stream(
        single_maliva.database, n_sessions=3, n_steps=4, seed=17
    )
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    fleet_kwargs = dict(processes=False, max_respawns=0, respawn_backoff_s=0.0)
    if tier == "sharded":
        plan = FaultPlan([FaultSpec(op="execute", kind="crash", nth=1, repeat=True)])
        stage = ScatterExecute(n_shards=2, fault_plan=plan, **fleet_kwargs)
    else:
        plan = FaultPlan([FaultSpec(op="serve", kind="crash", nth=1, repeat=True)])
        stage = DispatchExecute(n_routers=2, fault_plan=plan, **fleet_kwargs)
    service = MalivaService(fleet_maliva, translator=TWITTER_TRANSLATOR, execute=stage)
    with service:
        half = len(stream) // 2
        for chunk in _chunks(stream[:half], 3):
            _assert_outcomes_match(
                single.answer_many(chunk), service.answer_many(chunk)
            )
        stats = service.stats.shards if tier == "sharded" else service.stats.routers
        assert stats is not None
        assert stats.n_retired == 2
        syncs = stats.n_syncs
        tweets = single_maliva.database.table("tweets")
        take = {
            column.name: tweets.column(column.name)[:20]
            for column in tweets.schema.columns
        }
        single.append_rows("tweets", dict(take))
        service.append_rows("tweets", dict(take))
        assert stats.n_syncs == syncs
        _assert_outcomes_match(
            single.answer_many(stream[half:]), service.answer_many(stream[half:])
        )


# ----------------------------------------------------------------------
# The acceptance scenario: kill -9 a real worker mid-stream
# ----------------------------------------------------------------------
def test_killed_worker_process_loses_zero_requests(ft_twins):
    single_maliva, sharded_maliva, stream = ft_twins
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=True, respawn_backoff_s=0.0),
    )
    with sharded:
        chunk = stream[:5]
        _assert_outcomes_match(
            single.answer_many(chunk), sharded.answer_many(chunk)
        )
        # Murder shard 0's worker out from under the router.
        victim = sharded.execute._slots[0].handle._process
        victim.kill()
        victim.join(timeout=5.0)
        # The very next batch completes — zero requests lost, outcomes
        # bit-identical to the healthy single-engine twin.
        _assert_outcomes_match(
            single.answer_many(chunk), sharded.answer_many(chunk)
        )
        shards = sharded.stats.shards
        assert shards is not None
        assert shards.n_worker_deaths >= 1
        assert not sharded.execute._closed
        # And the one after that scatters through the respawned worker.
        batches_before = shards.per_shard[0].n_batches
        _assert_outcomes_match(
            single.answer_many(chunk), sharded.answer_many(chunk)
        )
        assert shards.per_shard[0].n_respawns >= 1
        assert shards.per_shard[0].n_batches > batches_before


# ----------------------------------------------------------------------
# Admission control: degrade, then shed
# ----------------------------------------------------------------------
def test_admission_controller_degrades_then_sheds():
    controller = AdmissionController(
        load_watermark_ms=100.0, mode="shed", shed_headroom=2.0
    )
    first = controller.admit(80.0)
    assert first.admitted and not first.degraded
    assert controller.inflight_ms == 80.0
    second = controller.admit(80.0)  # 80 < 100: still under the watermark
    assert second.admitted and not second.degraded
    third = controller.admit(100.0)  # load 160 >= 100: degrade
    assert third.admitted and third.degraded
    assert third.tau_ms == pytest.approx(100.0 * 100.0 / 160.0)
    while controller.inflight_ms < 200.0:
        controller.admit(100.0)
    shed = controller.admit(50.0)  # load >= 2x watermark: shed
    assert not shed.admitted
    assert shed.retry_after_ms == pytest.approx(controller.inflight_ms - 100.0)
    assert controller.n_shed == 1
    controller.release(controller.inflight_ms)
    assert controller.inflight_ms == 0.0
    again = controller.admit(80.0)
    assert again.admitted and not again.degraded


def test_admission_cost_estimate_learns_from_outcomes():
    controller = AdmissionController(load_watermark_ms=1_000.0, ewma_alpha=0.5)
    assert controller.estimated_cost_ms(400.0) == 400.0  # no estimate: tau
    controller.observe(100.0)
    controller.observe(200.0)
    assert controller.cost_ewma_ms == pytest.approx(150.0)
    assert controller.estimated_cost_ms(400.0) == pytest.approx(150.0)
    assert controller.estimated_cost_ms(80.0) == 80.0  # capped by the budget


def test_degrade_mode_never_refuses():
    controller = AdmissionController(
        load_watermark_ms=10.0, mode="degrade", tau_floor_fraction=0.25
    )
    taus = [controller.admit(100.0).tau_ms for _ in range(20)]
    assert all(tau >= 25.0 for tau in taus)  # floored at 25% of the budget
    assert controller.n_shed == 0
    assert controller.n_degraded > 0


def test_service_sheds_with_structured_error(serving_maliva):
    controller = AdmissionController(
        load_watermark_ms=1.0, mode="shed", shed_headroom=1.0
    )
    service = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, admission=controller
    )
    queries = build_session_stream(
        serving_maliva.database, n_sessions=2, n_steps=3, seed=3
    )
    outcomes = service.answer_many(queries)
    # The first request filled the 1ms watermark; the rest were shed.
    assert len(outcomes) == 1
    assert len(service.last_shed) == len(queries) - 1
    assert service.stats.n_shed == len(queries) - 1
    request, error = service.last_shed[0]
    assert isinstance(error, ServiceOverloadError)
    assert error.retry_after_ms > 0
    assert error.watermark_ms == 1.0
    # The reserved cost drained with the batch: the next one is admitted.
    assert controller.inflight_ms == 0.0
    assert service.answer_many(queries[:1])


def test_answer_one_raises_overload(serving_maliva):
    controller = AdmissionController(
        load_watermark_ms=10.0, mode="shed", shed_headroom=1.0
    )
    service = MalivaService(
        serving_maliva, translator=TWITTER_TRANSLATOR, admission=controller
    )
    controller.inflight_ms = 50.0  # synthetic in-flight backlog
    request = build_session_stream(
        serving_maliva.database, n_sessions=1, n_steps=1, seed=9
    )[0]
    with pytest.raises(ServiceOverloadError) as excinfo:
        service.answer_one(request)
    assert excinfo.value.retry_after_ms == pytest.approx(40.0)
    assert excinfo.value.load_ms == pytest.approx(50.0)


def test_degraded_taus_match_across_deployments(ft_twins):
    """Admission degradation composes with sharding: identical controllers
    degrade identical requests identically, so the two deployments stay
    bit-for-bit twins even under overload."""
    single_maliva, sharded_maliva, stream = ft_twins
    single = MalivaService(
        single_maliva,
        translator=TWITTER_TRANSLATOR,
        admission=AdmissionController(load_watermark_ms=200.0, mode="degrade"),
    )
    sharded = MalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        admission=AdmissionController(load_watermark_ms=200.0, mode="degrade"),
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with sharded:
        for chunk in _chunks(stream, 5):
            _assert_outcomes_match(
                single.answer_many(chunk), sharded.answer_many(chunk)
            )
        assert single.stats.n_tau_degraded == sharded.stats.n_tau_degraded


def test_admission_validation():
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        AdmissionController(mode="panic")
    with pytest.raises(QueryError):
        AdmissionController(load_watermark_ms=0.0)
    with pytest.raises(QueryError):
        AdmissionController(shed_headroom=0.5)
    with pytest.raises(QueryError):
        AdmissionController(tau_floor_fraction=0.0)


# ----------------------------------------------------------------------
# Worker handle hygiene
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", ["sharded", "replicated"])
def test_close_reaps_and_releases_fds(ft_twins, tier):
    """close() must terminate (then kill) the worker and close both pipe
    ends even when the worker is already dead — no FD leak per death."""
    _single, fleet_maliva, _stream = ft_twins
    if tier == "sharded":
        service = MalivaService(
            fleet_maliva,
            execute=ScatterExecute(n_shards=2, processes=True),
        )
        slots = service.execute._slots
    else:
        service = MalivaService(
            fleet_maliva,
            execute=DispatchExecute(n_routers=2, processes=True),
        )
        slots = service.execute._group.slots
    handle = slots[0].handle
    process, conn = handle._process, handle._conn
    process.kill()
    process.join(timeout=5.0)
    handle.close(graceful=True)  # worker already dead: must not hang/raise
    assert conn.closed
    assert not process.is_alive()
    service.close()
    for slot in slots:
        assert slot.handle is None


def test_fault_exceptions_are_internal():
    assert issubclass(WorkerTimeout, WorkerFault)
    assert WorkerFault("x").args == ("x",)
    assert CRASH == "crash"
