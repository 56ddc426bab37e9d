"""The worker-fleet substrate alone: channels, handles, supervision.

Drives :mod:`repro.serving.fleet` with a toy op table — no engine, no
middleware — through *both* channels, so the transport's failure
normalization (every way a worker can misbehave becomes a
``WorkerFault``) and the supervisor's life-cycle (backoff, breaker,
bounded spawns) are pinned independently of the two tiers built on them.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import QueryError
from repro.serving import fleet as fleet_module
from repro.serving.faults import FaultPlan, FaultSpec, WorkerFault, WorkerTimeout
from repro.serving.fleet import SupervisedFleet, WorkerHandle


def toy_ops() -> dict:
    """Ops named after real ones so a ``FaultSpec`` can target them."""
    state: dict = {}

    def init(spec) -> None:
        if spec == "wedge":
            time.sleep(3600.0)
        state["spec"] = spec

    def boom(_payload):
        raise ValueError("toy op failed")

    return {
        "init": init,
        "execute": lambda payload: {"echo": payload, "spec": state["spec"]},
        "sync": boom,
    }


class ToyHandle(WorkerHandle):
    def __init__(self, fleet, worker_id, spec="ready"):
        super().__init__(fleet, worker_id, toy_ops, spec)

    def execute(self, payload, deadline_s=5.0) -> dict:
        return self._request("execute", payload, deadline_s, dict)

    def sync(self, deadline_s=5.0) -> None:
        self._request("sync", None, deadline_s)


def _fleet(processes, *, n=1, build=None, faults=(), deaths=None, **knobs):
    fleet = SupervisedFleet(
        build or (lambda slot: ToyHandle(fleet, slot.shard_id)),
        n,
        kind="toy",
        on_death=(deaths if deaths is not None else []).append,
        processes=processes,
        fault_plan=FaultPlan(list(faults)),
        **knobs,
    )
    return fleet


BOTH = pytest.mark.parametrize("processes", [False, True], ids=["inline", "process"])


# ----------------------------------------------------------------------
# Channels: every failure is a WorkerFault
# ----------------------------------------------------------------------
@BOTH
def test_round_trip_and_upcall(processes):
    fleet = _fleet(processes)
    fleet.spawn()
    handle = fleet.slots[0].handle
    try:
        assert handle.execute([1, 2]) == {"echo": [1, 2], "spec": "ready"}
    finally:
        fleet.close()
    assert fleet.live_slots() == []
    fleet.close()  # idempotent


@BOTH
def test_deadline_miss_is_a_timeout(processes):
    fleet = _fleet(processes, faults=[FaultSpec(op="execute", kind="hang")])
    fleet.spawn()
    slot = fleet.slots[0]
    with pytest.raises(WorkerTimeout) as missed:
        slot.handle.execute("x", deadline_s=0.2)
    # The supervisor's reaction: reap the hung worker without waiting on it.
    fleet.record_death(slot, missed.value)
    assert slot.handle is None and slot.last_fault == str(missed.value)
    fleet.close()


@BOTH
def test_crash_error_and_garble_are_faults(processes):
    faults = [
        FaultSpec(op="execute", kind="garble", shard_id=0),
        FaultSpec(op="execute", kind="crash", shard_id=1),
    ]
    fleet = _fleet(processes, n=3, faults=faults)
    fleet.spawn()
    garbler, crasher, thrower = (slot.handle for slot in fleet.slots)
    try:
        with pytest.raises(WorkerFault, match="garbled execute reply"):
            garbler.execute("x")
        # A crashed worker EOFs its pipe; inline reads the same way.
        with pytest.raises(WorkerFault) as crashed:
            crasher.execute("x")
        assert not isinstance(crashed.value, WorkerTimeout)
        # An op that raises ships its traceback in an "error" reply.
        with pytest.raises(WorkerFault, match="ValueError: toy op failed"):
            thrower.sync()
        with pytest.raises(WorkerFault, match="unknown op"):
            thrower._request("reboot", None, 5.0)
    finally:
        fleet.close()


@BOTH
def test_malformed_message_is_a_fault(processes, monkeypatch):
    # Forked workers inherit the patched loop body, so both channels ship
    # a 3-tuple where the protocol wants ("ok" | "error", payload).
    monkeypatch.setattr(
        fleet_module,
        "_reply_to",
        lambda ops, op, payload, fault: ("ok", None, "extra")
        if op == "execute"
        else ("ok", None),
    )
    fleet = _fleet(processes)
    fleet.spawn()
    try:
        with pytest.raises(WorkerFault, match="malformed reply"):
            fleet.slots[0].handle.execute("x")
    finally:
        fleet.close()


def test_close_on_dead_worker_frees_pipe_and_reaps():
    fleet = _fleet(True)
    fleet.spawn()
    handle = fleet.slots[0].handle
    process, conn = handle._process, handle._conn
    process.kill()
    process.join(timeout=5.0)
    handle.close(graceful=True)  # must not hang or raise
    assert conn.closed
    assert not process.is_alive()
    with pytest.raises(WorkerFault, match="send failed"):
        handle.execute("x")
    fleet.close()


# ----------------------------------------------------------------------
# Spawns are bounded by the setup deadline
# ----------------------------------------------------------------------
def test_wedged_init_is_bounded(monkeypatch):
    monkeypatch.setattr(fleet_module, "SETUP_DEADLINE_FLOOR_S", 0.3)
    created = []

    class Recorded(ToyHandle):
        def __init__(self, *args):
            created.append(self)
            super().__init__(*args)

    fleet = _fleet(
        True,
        n=2,
        build=lambda slot: Recorded(
            fleet, slot.shard_id, "wedge" if slot.shard_id else "ready"
        ),
        rpc_deadline_ms=50.0,
    )
    started = time.monotonic()
    with pytest.raises(WorkerTimeout):
        fleet.spawn()
    assert time.monotonic() - started < 10.0
    # The partial fleet is closed: the healthy first worker and the wedged
    # second one are both reaped, and no slot keeps a handle.
    assert [slot.handle for slot in fleet.slots] == [None, None]
    assert len(created) == 2
    assert all(not handle._process.is_alive() for handle in created)
    assert all(handle._conn.closed for handle in created)


def test_wedged_respawn_backs_off_then_retires(monkeypatch):
    monkeypatch.setattr(fleet_module, "SETUP_DEADLINE_FLOOR_S", 0.2)
    wedge = {"on": False}
    fleet = _fleet(
        True,
        build=lambda slot: ToyHandle(
            fleet, slot.shard_id, "wedge" if wedge["on"] else "ready"
        ),
        rpc_deadline_ms=50.0,
        max_respawns=2,
        respawn_backoff_s=0.0,
    )
    fleet.spawn()
    slot = fleet.slots[0]
    wedge["on"] = True
    fleet.record_death(slot, WorkerFault("killed by the test"))
    assert fleet.ensure() == ([], [])  # timed-out respawn 1: back off
    assert slot.handle is None and not slot.retired
    assert fleet.ensure() == ([], [slot])  # respawn 2 spends the budget
    assert slot.retired
    fleet.close()


# ----------------------------------------------------------------------
# Supervision: backoff, breaker, call_live
# ----------------------------------------------------------------------
def test_backoff_doubles_to_the_cap_and_resets():
    deaths = []
    fleet = _fleet(False, deaths=deaths, respawn_backoff_s=0.25, max_respawns=99)
    fleet.spawn()
    slot = fleet.slots[0]
    seen = []
    for _ in range(5):
        fleet.record_death(slot, WorkerFault("again"))
        seen.append(slot.backoff_s)
    assert seen == [0.5, 1.0, 2.0, 2.0, 2.0]
    assert seen[-1] == fleet_module.RESPAWN_BACKOFF_CAP_S
    assert slot.deaths == 5 and deaths == [slot] * 5
    assert fleet.ensure() == ([], [])  # still inside the backoff window
    slot.next_spawn_at = 0.0
    assert fleet.ensure() == ([slot], [])
    assert slot.backoff_s == 0.25  # a successful respawn resets it
    fleet.close()


def test_breaker_retires_after_max_respawns():
    failing = {"on": False}

    def build(slot):
        if failing["on"]:
            raise RuntimeError("cannot build")
        return ToyHandle(fleet, slot.shard_id)

    fleet = _fleet(False, n=2, build=build, max_respawns=3, respawn_backoff_s=0.0)
    fleet.spawn()
    victim, bystander = fleet.slots
    failing["on"] = True
    fleet.record_death(victim, WorkerFault("first death"))
    assert fleet.ensure() == ([], [])
    assert fleet.ensure() == ([], [])
    assert fleet.ensure() == ([], [victim])
    assert victim.retired and victim.respawns == 3
    assert fleet.active_slots() == [bystander] == fleet.live_slots()
    assert fleet.ensure() == ([], [])  # retired for good
    fleet.close()


def test_call_live_records_deaths_and_keeps_the_reason():
    deaths = []
    crash = FaultSpec(op="execute", kind="crash", shard_id=1)
    fleet = _fleet(False, n=3, faults=[crash], deaths=deaths)
    fleet.spawn()
    results = fleet.call_live(lambda slot: slot.handle.execute(slot.shard_id))
    assert [(slot.shard_id, reply["echo"]) for slot, reply in results] == [
        (0, 0),
        (2, 2),
    ]
    dead = fleet.slots[1]
    assert dead.handle is None and deaths == [dead]
    assert dead.last_fault == "toy worker 1: injected crash"
    # Dead slots in an explicit list are skipped, not called.
    assert fleet.call_live(lambda slot: slot.shard_id, [dead]) == []
    fleet.close()


def test_fleet_knobs_are_validated_once():
    for knobs in (
        {"rpc_deadline_ms": 0.0},
        {"deadline_tau_factor": -1.0},
        {"max_respawns": -1},
        {"respawn_backoff_s": -0.1},
    ):
        with pytest.raises(QueryError):
            _fleet(False, **knobs)
    fleet = _fleet(False, rpc_deadline_ms=None)
    assert fleet.call_deadline_s(500.0) is None
    assert fleet.setup_deadline_s() is None
    fleet = _fleet(False, rpc_deadline_ms=1_000.0, deadline_tau_factor=2.0)
    assert fleet.call_deadline_s(500.0) == 2.0
    assert fleet.setup_deadline_s() == fleet_module.SETUP_DEADLINE_FLOOR_S


# ----------------------------------------------------------------------
# Both tiers surface the fleet's fault reason in their per-worker window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", ["sharded", "replicated"])
def test_tiers_report_last_fault(tier):
    from repro.serving import DispatchExecute, MalivaService, ScatterExecute
    from repro.viz import TWITTER_TRANSLATOR

    from tests.conftest import build_session_stream
    from tests.serving.test_sharded_service import _build_maliva

    maliva = _build_maliva(n_tweets=400, max_epochs=2)
    stream = build_session_stream(maliva.database, n_sessions=2, n_steps=3, seed=3)
    if tier == "sharded":
        plan = FaultPlan([FaultSpec(op="execute", kind="crash", shard_id=1)])
        stage = ScatterExecute(n_shards=2, fault_plan=plan, processes=False)
        windows, reason = ("shards", "per_shard"), "shard worker 1: injected crash"
    else:
        plan = FaultPlan([FaultSpec(op="serve", kind="garble", shard_id=1)])
        stage = DispatchExecute(n_routers=2, fault_plan=plan, processes=False)
        windows, reason = ("routers", "per_router"), "router worker 1: garbled serve"
    with MalivaService(maliva, translator=TWITTER_TRANSLATOR, execute=stage) as service:
        service.answer_many(stream)
        fleet_report = service.report()["service"][windows[0]]
    window = fleet_report[windows[1]]["1"]
    assert window["n_deaths"] >= 1
    assert window["last_fault"].startswith(reason)
    healthy = fleet_report[windows[1]]["0"]
    assert healthy["n_deaths"] == 0 and healthy["last_fault"] is None
