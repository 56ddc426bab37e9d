"""The worker-fleet substrate under both multi-process tiers.

The shard fleet (:mod:`repro.serving.sharded`) and the replicated router
tier (:mod:`repro.serving.replicated`) run the same machinery below their
scatter/dispatch logic; this module is the only place that knows it
(DESIGN.md §4.5).  A tier contributes an *op table* (``make_ops() ->
{op name: callable(payload)}``, built worker-side so its state lives in
the worker), a thin :class:`WorkerHandle` subclass holding the payload
shape checks of its replies, and its *reactions* to the fleet's events.

Protocol: the router sends ``(op, payload, fault)`` down a duplex pipe per
worker and the worker answers ``("ok", result)`` or ``("error",
traceback)`` — one reply per op, so the pipe stays in lockstep.
Everything crossing the pipe is plain pickled data, which keeps the
design start-method agnostic.  ``processes=False`` swaps the pipe for an
:class:`InlineChannel` that runs the *same* op table in-process —
bit-identical, handy for tests and for single-core hosts where process
parallelism cannot pay for its transport.

Failure model: a worker that times out past its per-call deadline, EOFs,
breaks its pipe, or replies garbage is *dead*, never *wrong* — every
reply is validated before use and a failed validation is treated exactly
like a crash (:class:`~repro.serving.faults.WorkerFault`; handles never
retry).  The supervisor then:

* **lets the tier recover the affected work.**  The shard router
  re-executes unreported scatter entries on its own engine, *in scheduled
  order, inside the same assembly loop* — the engine consumed its hint
  draws and plan-cache sequence during classification, so the recovered
  outcome is bit-identical to both the healthy scatter outcome and the
  single-engine service.  The dispatcher replays a dead router's
  unacknowledged journal entries on a survivor.  A batch never fails
  because a worker died.
* **respawns the worker warm.**  The tier's ``build_handle`` callback
  rebuilds the worker from the *live* catalog, collapsing every sync the
  dead worker missed into the spec itself, after a capped exponential
  backoff.  Respawns are budgeted (``max_respawns``); a flapping worker
  exhausts the budget and trips the circuit breaker.
* **retires.**  A breaker-open slot is permanently removed and the tier
  shrinks around it (shard re-slicing, session rebalancing and admission
  capacity); with zero survivors every request runs on the router.

Deadline classes: request-path ops get ``rpc_deadline_ms`` plus a share of
the batch's largest tau (:meth:`SupervisedFleet.call_deadline_s`);
lifecycle and coherence ops — ``init``, syncs, stats probes, resets — get
the wide fixed :meth:`SupervisedFleet.setup_deadline_s`.  No receive is
unbounded unless ``rpc_deadline_ms=None`` disables deadlines altogether.

Fault injection threads through the same transport: the *router-side*
channel consults an optional :class:`~repro.serving.faults.FaultPlan`
once per op and ships the chosen action (crash / hang / garble) inside
the op message, so workers misbehave at exactly the scheduled call —
deterministically, inline and in real processes (see ``faults.py`` for
why the counting lives router-side).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback

from ..errors import QueryError
from .faults import (
    CRASH,
    GARBLE,
    GARBLED_REPLY,
    HANG,
    FaultPlan,
    WorkerFault,
    WorkerTimeout,
)

#: How long a worker told to HANG sleeps — far past any realistic deadline.
_HANG_S = 3600.0
#: Ceiling of the capped exponential respawn backoff.
RESPAWN_BACKOFF_CAP_S = 2.0
#: Floor of the lifecycle/coherence deadline, whatever ``rpc_deadline_ms`` is.
SETUP_DEADLINE_FLOOR_S = 30.0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _reply_to(ops: dict, op: str, payload, fault: str | None) -> tuple:
    """The reply message one op produces (process loop and inline alike)."""
    if fault == GARBLE:
        return "ok", GARBLED_REPLY
    if op == "stop":
        return "ok", None
    if op not in ops:
        return "error", f"unknown op {op!r}"
    try:
        return "ok", ops[op](payload)
    except Exception:  # noqa: BLE001 - ship the traceback to the router
        return "error", traceback.format_exc()


def serve_worker(conn, make_ops) -> None:
    """Worker-process loop: build the tier's op table, then serve the pipe.

    Every op message carries an optional injected fault action as its
    third element: ``crash`` exits before touching the op (the router
    sees EOF, exactly like a segfault), ``hang`` sleeps far past any
    deadline, ``garble`` ships junk in place of the real reply.
    """
    ops = make_ops()
    while True:
        try:
            op, payload, fault = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if fault == CRASH:
            # Die before touching the op — the router's next recv EOFs.
            return
        if fault == HANG:  # pragma: no cover - killed mid-sleep by router
            time.sleep(_HANG_S)
        conn.send(_reply_to(ops, op, payload, fault))
        if op == "stop":
            return


# ----------------------------------------------------------------------
# Router side: the two channels
# ----------------------------------------------------------------------
class WorkerChannel:
    """Router-side end of one worker's transport.

    ``send`` ships one op (consulting the fault plan exactly once);
    ``recv`` returns the next op's validated ``"ok"`` payload.  A timeout,
    transport error, error reply, or malformed message raises
    :class:`WorkerFault` (:class:`WorkerTimeout` for deadline misses).
    """

    #: The worker process and pipe end — ``None`` when there is no process.
    process = None
    conn = None

    def __init__(self, label: str, worker_id: int, fault_plan: FaultPlan | None):
        self.label = label
        self._worker_id = worker_id
        self._fault_plan = fault_plan

    def send(self, op: str, payload) -> None:
        fault = None
        if self._fault_plan is not None:
            fault = self._fault_plan.action_for(self._worker_id, op)
        self._put((op, payload, fault))

    def recv(self, deadline_s: float | None):
        """Wait up to ``deadline_s`` for the op's reply and validate it."""
        message = self._get(deadline_s)
        if not isinstance(message, tuple) or len(message) != 2:
            raise WorkerFault(f"{self.label}: malformed reply {message!r}")
        status, payload = message
        if status != "ok":
            raise WorkerFault(f"{self.label} failed:\n{payload}")
        return payload


class ProcessChannel(WorkerChannel):
    """A worker process driven over a duplex pipe."""

    def __init__(self, label, worker_id, fault_plan, make_ops):
        super().__init__(label, worker_id, fault_plan)
        context = multiprocessing.get_context()
        self.conn, worker_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=serve_worker,
            args=(worker_conn, make_ops),
            daemon=True,
            name="maliva-" + label.replace(" ", "-"),
        )
        self.process.start()
        worker_conn.close()

    def _put(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError, ValueError) as error:
            raise WorkerFault(f"{self.label}: send failed: {error}") from error

    def _get(self, deadline_s: float | None):
        try:
            if deadline_s is not None and not self.conn.poll(deadline_s):
                raise WorkerTimeout(
                    f"{self.label}: no reply within {deadline_s:.3f}s"
                )
            return self.conn.recv()
        except WorkerFault:
            raise
        except Exception as error:  # noqa: BLE001 - any transport failure
            raise WorkerFault(f"{self.label}: receive failed: {error}") from error

    def close(self, graceful: bool = True) -> None:
        """Stop the worker, escalating terminate → kill, and free the pipe.

        Both pipe ends are always closed, even when the worker is already
        dead — a respawning supervisor must not leak one FD per death.
        """
        try:
            if graceful and self.process.is_alive():
                try:
                    self.conn.send(("stop", None, None))
                    if self.conn.poll(1.0):
                        self.conn.recv()
                except (BrokenPipeError, EOFError, OSError, ValueError):
                    pass
                self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=2.0)
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class InlineChannel(WorkerChannel):
    """The same op table driven in-process (no transport, same semantics).

    Work happens at receive time.  Injected faults surface where the
    process transport would surface them: a crash reads as the EOF it
    causes, a hang as the deadline miss, and a garbled reply travels
    through the same validation as a real one.
    """

    def __init__(self, label, worker_id, fault_plan, make_ops):
        super().__init__(label, worker_id, fault_plan)
        self._ops = make_ops()
        self._pending: list[tuple] = []

    def _put(self, message) -> None:
        self._pending.append(message)

    def _get(self, deadline_s: float | None):
        op, payload, fault = self._pending.pop(0)
        if fault == HANG:
            raise WorkerTimeout(f"{self.label}: injected hang")
        if fault == CRASH:
            raise WorkerFault(f"{self.label}: injected crash")
        return _reply_to(self._ops, op, payload, fault)

    def close(self, graceful: bool = True) -> None:
        self._pending.clear()


class WorkerHandle:
    """The tier-independent half of a worker handle.

    Opens the worker's channel on ``fleet`` and runs its ``init`` op under
    the fleet's setup deadline, so a worker that wedges while starting is
    a failed spawn, not a blocked router.  Subclasses add one method per
    op with that op's payload shape check.
    """

    def __init__(self, fleet: "SupervisedFleet", worker_id: int, make_ops, spec):
        self._channel = fleet.open_channel(worker_id, make_ops)
        self._process = self._channel.process
        self._conn = self._channel.conn
        try:
            # Warm start: the spec travels pickled; the worker builds its
            # engine state before the service answers its first request.
            self._request("init", spec, fleet.setup_deadline_s())
        except Exception:
            self.close(graceful=False)
            raise

    def _request(self, op: str, payload, deadline_s, reply_type=type(None)):
        """Send one op and return its reply, which must be a ``reply_type``."""
        self._channel.send(op, payload)
        return self._reply(op, deadline_s, reply_type)

    def _reply(self, op: str, deadline_s, reply_type):
        """Receive an already-sent op's reply and check its payload type."""
        reply = self._channel.recv(deadline_s)
        if not isinstance(reply, reply_type):
            raise WorkerFault(
                f"{self._channel.label}: garbled {op} reply {reply!r}"
            )
        return reply

    def _check_count(self, op: str, got: int, expected: int | None) -> None:
        if expected is not None and got != expected:
            raise WorkerFault(
                f"{self._channel.label}: expected {expected} {op} results, "
                f"got {got}"
            )

    def close(self, graceful: bool = True) -> None:
        self._channel.close(graceful)


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
class SupervisedSlot:
    """One supervised position in a worker fleet: a handle plus its history.

    The slot outlives any individual worker: deaths null the handle,
    respawns refill it, and the breaker retires the slot for good.  Slot
    index == ``shard_id`` (the router id in the replicated tier) for the
    fleet's lifetime; only the *rank* among active slots shifts when a
    neighbour retires.
    """

    __slots__ = (
        "shard_id",
        "handle",
        "retired",
        "deaths",
        "respawns",
        "backoff_s",
        "next_spawn_at",
        "last_fault",
    )

    def __init__(self, shard_id: int, backoff_s: float) -> None:
        self.shard_id = shard_id
        self.handle = None
        self.retired = False
        self.deaths = 0
        self.respawns = 0
        self.backoff_s = backoff_s
        self.next_spawn_at = 0.0
        #: Message of the last :class:`WorkerFault` that killed this worker.
        self.last_fault: str | None = None


def _close_quietly(handle, graceful: bool) -> None:
    if handle is not None:
        try:
            handle.close(graceful=graceful)
        except Exception:  # noqa: BLE001 - reaping is best-effort
            pass


class SupervisedFleet:
    """``n`` supervised worker slots: spawn, death, respawn, breaker, close.

    ``build_handle(slot)`` builds a live handle for a slot from the tier's
    *current* state — it serves first spawn and every respawn, so missed
    syncs collapse into the spec.  ``on_death(slot)`` tells the tier a
    worker died (stats); the other reactions hang off what
    :meth:`ensure` returns.  The fleet also owns the transport choice and
    the deadline knobs, validated here once for both tiers.
    """

    def __init__(
        self,
        build_handle,
        n: int,
        *,
        kind: str,
        on_death,
        processes: bool = True,
        fault_plan: FaultPlan | None = None,
        rpc_deadline_ms: float | None = 10_000.0,
        deadline_tau_factor: float = 1.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        if rpc_deadline_ms is not None and rpc_deadline_ms <= 0:
            raise QueryError("rpc_deadline_ms must be positive (None disables)")
        if deadline_tau_factor < 0:
            raise QueryError("deadline_tau_factor must be non-negative")
        if max_respawns < 0:
            raise QueryError("max_respawns must be non-negative")
        if respawn_backoff_s < 0:
            raise QueryError("respawn_backoff_s must be non-negative")
        self._build_handle = build_handle
        self._on_death = on_death
        self.kind = kind
        self.processes = processes
        self._fault_plan = fault_plan
        self.rpc_deadline_ms = rpc_deadline_ms
        self.deadline_tau_factor = deadline_tau_factor
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.slots = [SupervisedSlot(i, respawn_backoff_s) for i in range(n)]
        self._closed = False

    def open_channel(self, worker_id: int, make_ops) -> WorkerChannel:
        label = f"{self.kind} worker {worker_id}"
        if self.processes:
            return ProcessChannel(label, worker_id, self._fault_plan, make_ops)
        return InlineChannel(label, worker_id, self._fault_plan, make_ops)

    def spawn(self) -> None:
        """First spawn of every slot; a failure closes the partial fleet."""
        try:
            for slot in self.slots:
                slot.handle = self._build_handle(slot)
        except Exception:
            self.close()
            raise

    # -- deadlines -----------------------------------------------------
    def call_deadline_s(self, tau_ms: float | None = None) -> float | None:
        """Reply deadline for request-path ops, scaled by the batch budget.

        A worker serving a big-budget batch legitimately works longer, so
        the deadline grows with the largest ``tau_ms`` in flight; the
        base ``rpc_deadline_ms`` covers transport and fixed overheads.
        ``rpc_deadline_ms=None`` disables deadlines entirely.
        """
        if self.rpc_deadline_ms is None:
            return None
        tau = tau_ms if tau_ms is not None else 0.0
        return (self.rpc_deadline_ms + self.deadline_tau_factor * tau) / 1000.0

    def setup_deadline_s(self) -> float | None:
        """Generous deadline for lifecycle and coherence ops (spawns,
        syncs, stats probes, resets): these rebuild indexes and ship whole
        tables, so they get a wide fixed multiple of the RPC deadline
        rather than a tau-scaled one."""
        if self.rpc_deadline_ms is None:
            return None
        return max(SETUP_DEADLINE_FLOOR_S, 4.0 * self.rpc_deadline_ms / 1000.0)

    # -- membership ----------------------------------------------------
    def live_slots(self) -> list[SupervisedSlot]:
        """Slots with a live handle, in id order."""
        return [slot for slot in self.slots if slot.handle is not None]

    def active_slots(self) -> list[SupervisedSlot]:
        """Slots not retired (their worker may be dead awaiting respawn)."""
        return [slot for slot in self.slots if not slot.retired]

    # -- death, respawn, breaker ---------------------------------------
    def _back_off(self, slot: SupervisedSlot) -> None:
        slot.next_spawn_at = time.monotonic() + slot.backoff_s
        slot.backoff_s = min(
            RESPAWN_BACKOFF_CAP_S,
            max(slot.backoff_s * 2.0, self.respawn_backoff_s),
        )

    def record_death(self, slot: SupervisedSlot, error: Exception) -> None:
        """Mark a slot's worker dead and schedule its (backed-off) respawn."""
        handle, slot.handle = slot.handle, None
        slot.deaths += 1
        slot.last_fault = str(error)
        _close_quietly(handle, graceful=False)
        self._back_off(slot)
        self._on_death(slot)

    def call_live(self, call, slots=None) -> list[tuple[SupervisedSlot, object]]:
        """``call(slot)`` on every live slot (of ``slots``, when given).

        A :class:`WorkerFault` records the death and the sweep continues;
        returns ``(slot, result)`` for the calls that succeeded.
        """
        results = []
        for slot in self.live_slots() if slots is None else slots:
            if slot.handle is None:
                continue
            try:
                results.append((slot, call(slot)))
            except WorkerFault as error:
                self.record_death(slot, error)
        return results

    def ensure(self) -> tuple[list[SupervisedSlot], list[SupervisedSlot]]:
        """Respawn dead slots past their backoff; retire exhausted ones.

        Runs between batches, never mid-batch, so a batch sees a stable
        fleet from classification/routing through gather and a death
        inside it only routes work back to the router.  Returns the slots
        respawned and the slots newly retired this pass.
        """
        respawned: list[SupervisedSlot] = []
        retired: list[SupervisedSlot] = []
        if self._closed:
            return respawned, retired
        now = time.monotonic()
        for slot in self.slots:
            if slot.retired or slot.handle is not None:
                continue
            if slot.respawns < self.max_respawns:
                if now < slot.next_spawn_at:
                    continue
                slot.respawns += 1
                try:
                    slot.handle = self._build_handle(slot)
                except Exception:  # noqa: BLE001 - retry after backoff
                    self._back_off(slot)
                else:
                    slot.backoff_s = self.respawn_backoff_s
                    respawned.append(slot)
                    continue
            if slot.respawns >= self.max_respawns:
                # Circuit breaker: the respawn budget is spent; stop
                # flapping and shrink the fleet instead.
                slot.retired = True
                retired.append(slot)
        return respawned, retired

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            handle, slot.handle = slot.handle, None
            _close_quietly(handle, graceful=True)

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

