"""The dispatch execute stage: N full router replicas behind a thin dispatcher.

With one router process the decision cache, session schedule, admission
watermark, and gather loop all die with it.  :class:`DispatchExecute`
removes that single-process ceiling (DESIGN.md §4.7): it is the
:class:`~repro.serving.service.ExecuteStage` that runs ``n_routers``
*complete* router replicas — each a full engine catalog plus a
:class:`~repro.serving.service.MalivaService` over the local stage,
rebuilt from a pickled :class:`RouterSpec` — in their own processes over
the worker-fleet substrate the shard fleet also runs on
(:mod:`repro.serving.fleet`: transport, fault interpretation, deadlines,
supervision).  The service it is bound to becomes the thin dispatcher: it
resolves, schedules, admits and records; the stage journals, routes and
gathers, and tells the service not to plan while a replica is alive.

**Dispatch.**  Sessions stick to routers: the first request of a session
binds it to the live router with the fewest assigned sessions (ties break
to the lowest id) and every later request follows, so each replica's
decision cache and engine caches see a stable slice of the traffic.
Sessionless requests round-robin.  Each router re-schedules its sub-batch
with the service's own scheduler, so a one-router fleet serves exactly
like the plain service under either scheduler.

**Journal.**  Every admitted request is journaled — sequence number,
session, query key, tau — *before* dispatch, and acknowledged only when
its outcome lands.  The journal is the zero-lost-requests contract: when
a router dies mid-batch (EOF, deadline miss, garbled reply — the
``WorkerFault``/``WorkerTimeout`` normalization), its unacknowledged
entries replay in sequence order on a survivor, and with zero survivors
on the dispatcher's own engine — the local stage, which also serves
whole batches while the fleet is empty.  Replicas are twin engines built from the
same catalog, statistics, agent, and QTE state, and planning draws no
engine randomness, so a replayed request's outcome — decision, virtual
times, counters — is bit-identical to the one the dead router would have
produced.  (Same caveat as shard recovery: the twin property holds on
deterministic engine profiles; stochastic profiles draw from per-process
RNG streams.)

**Supervision.**  Router slots live in a
:class:`~repro.serving.fleet.SupervisedFleet`: deaths null the handle,
warm respawns (rebuilt from the dispatcher's *live* catalog, collapsing
every missed sync, with an empty decision cache) follow capped
exponential backoff, and a flapping router exhausts ``max_respawns``,
trips the circuit breaker, and is retired — its sessions rebalance to
the survivors and the admission watermark shrinks by
:meth:`~repro.serving.admission.AdmissionController.set_capacity_fraction`
so shed/degrade verdicts track the smaller fleet.

**Replicas plan alone.**  Each replica keeps its own decision cache and
shares nothing with its siblings.  A decision depends only on the query,
tau and the catalog, so a replica that has not seen a ``(query, tau)``
replans it and reaches the same decision; sharing could save at most one
plan per distinct pair per extra replica (DESIGN.md §4.7).

**Admission.**  The dispatcher owns the (optional) controller, so queued
virtual cost aggregates across every router and verdicts stay global —
replicas run with ``admission=None``.

**Coherence.**  A catalog invalidation on the dispatcher's engine
broadcasts a ``router_sync`` (fresh table + index columns + statistics)
to every live replica; dead slots skip it — their respawn rebuilds from
the live catalog and cannot go stale.

``processes=False`` drives the same replicas inline — bit-identical,
for tests and single-core hosts.  The async front end composes as it does
with any stage: each of its micro-batches is one :meth:`DispatchExecute.
run` call, which ships the sub-batches and gathers them.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

import numpy as np

from ..core.middleware import Maliva, RequestOutcome
from ..db import Database, SelectQuery
from ..db.cost_model import CostModel
from ..db.database import SimProfile
from ..db.statistics import TableStatistics
from ..db.table import Table
from ..errors import QueryError
from ..qte import AccurateQTE, SamplingQTE
from .faults import FaultPlan, WorkerFault
from .fleet import SupervisedFleet, SupervisedSlot, WorkerHandle
from .requests import VizRequest
from .service import ExecuteStage, LocalExecute, MalivaService, _PlannedBatch
from .stats import RouterStats


# ----------------------------------------------------------------------
# Replica spec: everything a worker needs to rebuild a full router
# ----------------------------------------------------------------------
@dataclasses.dataclass
class QteSpec:
    """Pickle-safe reconstruction state for a replica-side QTE."""

    kind: str  # "accurate" | "sampling"
    unit_cost_ms: float
    overhead_ms: float
    # Sampling-QTE only:
    attributes: tuple[str, ...] = ()
    sample_table: str | None = None
    ridge: float = 1e-2
    weights: np.ndarray | None = None
    training_rmse_log: float | None = None


@dataclasses.dataclass
class RouterSpec:
    """Pickle-safe reconstruction state for one router replica.

    Unlike a :class:`~repro.db.sharding.ShardSpec` (a slice), a router
    replica is the *whole* router: full tables, indexes, the dispatcher's
    own statistics objects (so estimates are bit-identical by
    construction), the trained agent, and the QTE reconstruction state.
    Plain data throughout, so it pickles regardless of start method.
    """

    tables: list[Table]
    #: table name -> columns to index (mirrors the dispatcher's catalog).
    indexed_columns: dict[str, tuple[str, ...]]
    stats: dict[str, TableStatistics]
    profile: SimProfile
    cost_model: CostModel
    agent: object
    qte: QteSpec
    tau_ms: float
    default_tau_ms: float
    #: The dispatcher's scheduler instance (stateless, pickles by class).
    scheduler: object
    decision_cache_size: int


def router_spec_for(
    maliva: Maliva,
    *,
    default_tau_ms: float,
    scheduler,
    decision_cache_size: int,
) -> RouterSpec:
    """Capture a :class:`RouterSpec` from the dispatcher's live middleware.

    Raises :class:`~repro.errors.QueryError` when the QTE is not one a
    replica can reconstruct — replication needs every replica to plan,
    so there is no router-side fallback to hide behind.
    """
    qte = maliva.qte
    if isinstance(qte, SamplingQTE):
        qte_spec = QteSpec(
            kind="sampling",
            unit_cost_ms=qte.unit_cost_ms,
            overhead_ms=qte.overhead_ms,
            attributes=qte.attributes,
            sample_table=qte.sample_table,
            ridge=qte.ridge,
            weights=qte._weights,
            training_rmse_log=qte.training_rmse_log,
        )
    elif isinstance(qte, AccurateQTE):
        # Replicas hold the full tables, so the accurate QTE rebuilds locally.
        qte_spec = QteSpec(
            kind="accurate",
            unit_cost_ms=qte.unit_cost_ms,
            overhead_ms=qte.overhead_ms,
        )
    else:
        raise QueryError(
            f"replicated serving cannot reconstruct a {type(qte).__name__} "
            f"on router replicas; use a sampling or accurate QTE"
        )
    database = maliva.database
    names = sorted(database.table_names)
    return RouterSpec(
        tables=[database.table(name) for name in names],
        indexed_columns={
            name: tuple(sorted(database.indexes_for(name))) for name in names
        },
        stats={name: database.stats(name) for name in names},
        profile=database.profile,
        cost_model=database.cost_model,
        agent=maliva.agent,
        qte=qte_spec,
        tau_ms=maliva.tau_ms,
        default_tau_ms=default_tau_ms,
        scheduler=scheduler,
        decision_cache_size=decision_cache_size,
    )


def build_router_service(spec: RouterSpec) -> MalivaService:
    """Rebuild a full router replica (engine + QTE + agent + service)."""
    database = Database(profile=spec.profile, cost_model=spec.cost_model)
    for table in spec.tables:
        database.add_table(table, analyze=False)
    for table_name, columns in spec.indexed_columns.items():
        for column in columns:
            database.create_index(table_name, column)
    # The dispatcher's own statistics objects: estimates (and therefore
    # decisions and virtual times) are bit-identical by construction.
    database._stats.update(spec.stats)
    if spec.qte.kind == "sampling":
        assert spec.qte.sample_table is not None
        qte = SamplingQTE(
            database,
            spec.qte.attributes,
            spec.qte.sample_table,
            unit_cost_ms=spec.qte.unit_cost_ms,
            overhead_ms=spec.qte.overhead_ms,
            ridge=spec.qte.ridge,
        )
        qte._weights = spec.qte.weights
        qte.training_rmse_log = spec.qte.training_rmse_log
    else:
        assert spec.qte.kind == "accurate", f"unknown QTE {spec.qte.kind!r}"
        qte = AccurateQTE(
            database,
            unit_cost_ms=spec.qte.unit_cost_ms,
            overhead_ms=spec.qte.overhead_ms,
        )
    agent = spec.agent
    maliva = Maliva(database, agent.space, qte, spec.tau_ms)
    maliva.adopt_agent(agent)
    return MalivaService(
        maliva,
        default_tau_ms=spec.default_tau_ms,
        scheduler=spec.scheduler,
        decision_cache_size=spec.decision_cache_size,
        admission=None,
    )


@dataclasses.dataclass
class RouterBatchReply:
    """One router replica's reply to a ``serve`` op."""

    #: ``(seq, outcome, decision_cached)`` per request, submission order.
    outcomes: list[tuple[int, RequestOutcome, bool]]
    #: Replica-side wall seconds spent serving the sub-batch.
    wall_s: float
    #: Requests answered from the replica's decision cache.
    n_cached: int


def _serve_on(service: MalivaService, jobs) -> RouterBatchReply:
    """Serve one dispatched sub-batch on a replica service."""
    requests = [
        VizRequest(
            payload=query, session_id=session, tau_ms=tau_ms, request_id=seq
        )
        for seq, query, tau_ms, session in jobs
    ]
    started = time.perf_counter()
    # A replica runs no admission, so this is answer_many — keeping hold of
    # the planned batch, whose flags say which decisions were cache hits.
    planned = service._plan_batch(requests)
    outcomes = service._execute(planned)
    wall_s = time.perf_counter() - started
    packed = [
        (request.request_id, outcome, cached)
        for request, outcome, cached in zip(requests, outcomes, planned.cached_flags)
    ]
    return RouterBatchReply(
        outcomes=packed,
        wall_s=wall_s,
        n_cached=sum(1 for _, _, cached in packed if cached),
    )


def _apply_router_sync(
    service: MalivaService,
    table: Table,
    indexed_columns: tuple[str, ...],
    stats: TableStatistics,
) -> None:
    """Install a fresh table on a replica and evict derived state.

    ``replace_table`` fires no invalidation hooks (the dispatcher drives
    replica coherence explicitly, like the shard sync path), so the
    replica-side service cache and QTE memos are evicted here.
    """
    database = service.maliva.database
    if database.has_table(table.name):
        database.replace_table(table)
    else:
        database.add_table(table, analyze=False)
    existing = database.indexes_for(table.name)
    for column in indexed_columns:
        if column not in existing:
            database.create_index(table.name, column)
    database._stats[table.name] = stats
    service._on_table_invalidated(table.name)
    service.maliva.qte.invalidate()


# ----------------------------------------------------------------------
# The router worker: op table and router-side handle
# ----------------------------------------------------------------------
def router_ops() -> dict:
    """The router worker's op table: one full replica service."""
    service: MalivaService | None = None

    def init(spec) -> None:
        nonlocal service
        service = build_router_service(spec)

    return {
        "init": init,
        "serve": lambda jobs: _serve_on(service, jobs),
        "router_sync": lambda payload: _apply_router_sync(service, *payload),
        "router_stats": lambda _: service.report(),
        "router_reset": lambda _: service.reset_stats(),
    }


class RouterHandle(WorkerHandle):
    """Dispatcher-side handle of one router replica: one method per op,
    each holding that op's payload shape check."""

    def __init__(self, fleet: SupervisedFleet, router_id: int, spec: RouterSpec):
        self.router_id = router_id
        super().__init__(fleet, router_id, router_ops, spec)

    def submit_serve(self, entries) -> None:
        """Ship journal entries as ``(seq, query, tau_ms, session)`` jobs."""
        self._channel.send(
            "serve",
            [(e.seq, e.query, e.tau_ms, e.session_id) for e in entries],
        )

    def collect_serve(
        self, deadline_s: float | None = None, expected: int | None = None
    ) -> RouterBatchReply:
        reply = self._reply("serve", deadline_s, RouterBatchReply)
        self._check_count("serve", len(reply.outcomes), expected)
        return reply

    def router_sync(
        self, table, indexed_columns, stats, deadline_s: float | None = None
    ) -> None:
        self._request(
            "router_sync", (table, tuple(indexed_columns), stats), deadline_s
        )

    def router_stats(self, deadline_s: float | None = None) -> dict:
        return self._request("router_stats", None, deadline_s, dict)

    def reset_stats(self, deadline_s: float | None = None) -> None:
        self._request("router_reset", None, deadline_s)


# ----------------------------------------------------------------------
# The pre-dispatch journal
# ----------------------------------------------------------------------
@dataclasses.dataclass
class JournalEntry:
    """One admitted request's journaled identity (plus its replay state)."""

    seq: int
    session_id: str | None
    query_key: tuple
    tau_ms: float
    #: The router the entry was dispatched to (-1: no live router).
    router_id: int
    #: The resolved query, kept so an unacknowledged entry can replay.
    query: SelectQuery


class RequestJournal:
    """Pre-dispatch intent log: the zero-lost-requests contract.

    Every admitted request is journaled *before* its sub-batch ships to a
    router and acknowledged only when its outcome lands.  Unacknowledged
    entries after a router death are exactly the requests whose answers
    are unaccounted for; the dispatcher replays them, in sequence order,
    on a survivor (or locally).  Sequence numbers are globally monotonic
    across the service's lifetime, so replay order is total.
    """

    def __init__(self) -> None:
        self._next_seq = 0
        self._entries: dict[int, JournalEntry] = {}

    def record(
        self,
        session_id: str | None,
        query: SelectQuery,
        tau_ms: float,
        router_id: int,
    ) -> JournalEntry:
        entry = JournalEntry(
            seq=self._next_seq,
            session_id=session_id,
            query_key=query.key(),
            tau_ms=tau_ms,
            router_id=router_id,
            query=query,
        )
        self._next_seq += 1
        self._entries[entry.seq] = entry
        return entry

    def ack(self, seq: int) -> None:
        self._entries.pop(seq, None)

    @property
    def depth(self) -> int:
        """Unacknowledged entries right now."""
        return len(self._entries)

    @property
    def next_seq(self) -> int:
        return self._next_seq


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class DispatchExecute(ExecuteStage):
    """Session-affine dispatch over N supervised full router replicas.

    The service this stage is bound to is the *dispatcher*: it resolves,
    schedules and records, but leaves planning to the replicas
    (:meth:`wants_decisions`) unless the fleet is empty.
    """

    def __init__(
        self,
        *,
        n_routers: int = 2,
        processes: bool = True,
        rpc_deadline_ms: float | None = 10_000.0,
        deadline_tau_factor: float = 1.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_routers < 1:
            raise QueryError(f"n_routers must be at least 1, got {n_routers}")
        self._group = SupervisedFleet(
            self._build_handle,
            n_routers,
            kind="router",
            on_death=self._on_router_death,
            processes=processes,
            fault_plan=fault_plan,
            rpc_deadline_ms=rpc_deadline_ms,
            deadline_tau_factor=deadline_tau_factor,
            max_respawns=max_respawns,
            respawn_backoff_s=respawn_backoff_s,
        )
        self._closed = False
        self._local_mode = False
        self._session_router: dict[str, int] = {}
        #: Sessions currently assigned to each router id: ``_session_router``
        #: counted by value, kept up to date on (re)assignment.
        self._router_sessions: Counter[int] = Counter()
        self._anon_cursor = -1
        self._journal = RequestJournal()
        self.n_routers = n_routers

    def bind(self, service: MalivaService) -> "DispatchExecute":
        if service.quality_fn is not None:
            raise QueryError(
                "replicated serving does not support quality_fn: quality "
                "scoring interleaves per-request engine work that cannot "
                "be replicated across routers"
            )
        super().bind(service)
        #: The dispatcher's own engine: serves when no replica is alive.
        self._local = LocalExecute().bind(service)
        self._group.spawn()
        service.stats.routers = RouterStats(n_routers=self.n_routers)
        return self

    def _build_handle(self, slot: SupervisedSlot) -> RouterHandle:
        """A replica from a fresh spec off the live catalog (spawn and
        respawn alike, so missed syncs collapse into the spec)."""
        service = self.service
        spec = router_spec_for(
            service.maliva,
            default_tau_ms=service.default_tau_ms,
            scheduler=service.scheduler,
            decision_cache_size=service._decision_cache._capacity,
        )
        return RouterHandle(self._group, slot.shard_id, spec)

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    @property
    def _router_stats(self) -> RouterStats | None:
        """This window's fleet counters (``None`` until the fleet is up)."""
        return self.service.stats.routers

    def reset_stats(self) -> None:
        self.service.stats.routers = RouterStats(n_routers=self.n_routers)
        if self._closed:
            return
        deadline_s = self._group.setup_deadline_s()
        self._group.call_live(lambda slot: slot.handle.reset_stats(deadline_s))

    def close(self) -> None:
        """Stop every router replica (idempotent)."""
        self._closed = True
        self._group.close()

    def report(self) -> dict:
        routers = self._router_stats
        report = {
            "journal": {
                "depth": self._journal.depth,
                "next_seq": self._journal.next_seq,
                "high_water": (
                    routers.journal_high_water if routers is not None else 0
                ),
            }
        }
        if not self._closed:
            deadline_s = self._group.setup_deadline_s()
            report["router_replicas"] = {
                str(slot.shard_id): replica_report
                for slot, replica_report in self._group.call_live(
                    lambda slot: slot.handle.router_stats(deadline_s)
                )
            }
        return report

    # ------------------------------------------------------------------
    # Supervision reactions
    # ------------------------------------------------------------------
    def _on_router_death(self, slot: SupervisedSlot) -> None:
        if self._router_stats is not None:
            self._router_stats.record_death(slot.shard_id, slot.last_fault)

    def _ensure_routers(self) -> None:
        """Respawn/retire between batches; re-aim sessions and admission."""
        respawned, retired = self._group.ensure()
        routers = self._router_stats
        if routers is not None:
            for slot in respawned:
                routers.record_respawn(slot.shard_id)
        for slot in retired:
            if routers is not None:
                routers.record_retired(slot.shard_id)
        if respawned or retired:
            self._update_capacity()

    def _update_capacity(self) -> None:
        """Scale the admission watermark to the surviving fleet fraction."""
        admission = self.service.admission
        if admission is None:
            return
        total = len(self._group.slots)
        active = len(self._group.active_slots())
        # With every router retired the dispatcher itself serves — it is
        # roughly one router's worth of capacity, never zero.
        admission.set_capacity_fraction(max(active, 1) / total)

    # ------------------------------------------------------------------
    # Session routing
    # ------------------------------------------------------------------
    def _route(self, session_id: str | None) -> int:
        """Pick the router for one request (sticky per session)."""
        live = self._group.live_slots()
        if not live:
            return -1
        live_ids = sorted(slot.shard_id for slot in live)
        if session_id is None:
            self._anon_cursor += 1
            return live_ids[self._anon_cursor % len(live_ids)]
        assigned = self._session_router.get(session_id)
        if assigned in live_ids:
            return assigned
        counts = self._router_sessions
        best = min(live_ids, key=lambda router_id: (counts[router_id], router_id))
        self._session_router[session_id] = best
        counts[best] += 1
        if assigned is not None:
            # The session had a router and lost it (death or retirement).
            counts[assigned] -= 1
            if self._router_stats is not None:
                self._router_stats.n_rebalances += 1
        return best

    # ------------------------------------------------------------------
    # The stage hooks: replicas plan, the dispatcher ships raw requests
    # ------------------------------------------------------------------
    def wants_decisions(self) -> bool:
        """Local mode (an empty fleet) plans on the dispatcher, with its
        own decision cache; otherwise routers plan."""
        self._ensure_routers()
        self._local_mode = not self._group.live_slots()
        return self._local_mode

    def run(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        """Journal the batch, ship session-affine sub-batches, gather."""
        if self._local_mode:
            if self._router_stats is not None:
                self._router_stats.n_local += len(planned.requests)
            return self._local.run(planned)
        if self._closed:
            raise QueryError("replicated service is closed")
        # router id -> journal entries dispatched there (-1: unrouted).
        jobs: dict[int, list[JournalEntry]] = {}
        seqs: list[int] = []
        max_tau = 0.0
        for index, request in enumerate(planned.requests):
            query, tau_ms = planned.resolved[index]
            max_tau = max(max_tau, tau_ms)
            session_id = request.effective_session()
            router_id = self._route(session_id)
            # Journal *before* dispatch: the entry is the replay record if
            # the router dies before acknowledging this request.
            entry = self._journal.record(session_id, query, tau_ms, router_id)
            jobs.setdefault(router_id, []).append(entry)
            seqs.append(entry.seq)
        deadline_s = self._group.call_deadline_s(max_tau)
        routers = self._router_stats
        if routers is not None:
            routers.n_dispatched += len(planned.requests)
            routers.record_journal_depth(self._journal.depth)
        served = self._gather(jobs, deadline_s)
        # Assemble in submission order; the replicas planned, so the
        # decision-cache flags are theirs.
        outcomes: list[RequestOutcome] = []
        for index, seq in enumerate(seqs):
            outcome, planned.cached_flags[index] = served[seq]
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    # Gather, failover
    # ------------------------------------------------------------------
    def _gather(
        self, jobs: dict[int, list[JournalEntry]], deadline_s: float | None
    ) -> dict[int, tuple[RequestOutcome, bool]]:
        """Ship each router its sub-batch, gather the replies, and replay
        the unacknowledged; returns ``seq -> (outcome, cached)``."""
        routers = self._router_stats
        # Entries routed to -1 found no live router; they take the replay
        # path, as do those whose router dies at (or after) submit.
        submitted = self._group.call_live(
            lambda slot: slot.handle.submit_serve(jobs[slot.shard_id]),
            [self._group.slots[r] for r in sorted(jobs) if r >= 0],
        )
        served: dict[int, tuple[RequestOutcome, bool]] = {}
        for slot, reply in self._group.call_live(
            lambda slot: slot.handle.collect_serve(
                deadline_s, expected=len(jobs[slot.shard_id])
            ),
            [slot for slot, _ in submitted],
        ):
            for seq, outcome, cached in reply.outcomes:
                served[seq] = (outcome, cached)
                self._journal.ack(seq)
            if routers is not None:
                routers.record_serve(
                    slot.shard_id, len(reply.outcomes), reply.wall_s, reply.n_cached
                )
        # Failover: every journaled entry without an acknowledged outcome
        # replays — in sequence order — on a survivor, or locally.
        orphans = [
            entry
            for entries in jobs.values()
            for entry in entries
            if entry.seq not in served
        ]
        if orphans:
            orphans.sort(key=lambda entry: entry.seq)
            replayed = self._replay(orphans, deadline_s)
            served.update(replayed)
            for seq in replayed:
                self._journal.ack(seq)
        return served

    def _replay(
        self, entries: list[JournalEntry], deadline_s: float | None
    ) -> dict[int, tuple[RequestOutcome, bool]]:
        """Replay journaled entries on a survivor (or the dispatcher).

        Survivors are tried in router-id order; each failed attempt marks
        that router dead and moves on.  Replay is bit-identical to the
        lost execution: replicas are twin engines and planning is
        deterministic, so *which* engine answers cannot change the
        decision, the virtual times, or the counters.
        """
        routers = self._router_stats
        if routers is not None:
            for entry in entries:
                routers.record_replayed(entry.router_id, 1)
        while True:
            live = self._group.live_slots()
            if not live:
                break
            slot = live[0]
            try:
                slot.handle.submit_serve(entries)
                reply = slot.handle.collect_serve(
                    deadline_s, expected=len(entries)
                )
            except WorkerFault as error:
                self._group.record_death(slot, error)
                continue
            if routers is not None:
                routers.record_serve(
                    slot.shard_id, len(entries), reply.wall_s, reply.n_cached
                )
            return {seq: (outcome, cached) for seq, outcome, cached in reply.outcomes}
        # Zero survivors: the dispatcher is the router of last resort.
        # Planning goes through its own plan stage and execution through
        # the local stage in the scheduler's order — the pipeline a replica
        # runs, so outcomes are bit-identical to a healthy dispatch.
        if routers is not None:
            routers.n_local += len(entries)
        service = self.service
        requests = [
            VizRequest(
                payload=entry.query,
                session_id=entry.session_id,
                tau_ms=entry.tau_ms,
                request_id=entry.seq,
            )
            for entry in entries
        ]
        resolved = [(entry.query, entry.tau_ms) for entry in entries]
        decisions, cached_flags = service._plan_stage(resolved)
        outcomes = self._local.run(
            _PlannedBatch(
                requests,
                resolved,
                service.scheduler.order(requests),
                decisions,
                cached_flags,
                shared_s=0.0,
            )
        )
        return {
            entry.seq: (outcome, cached)
            for entry, outcome, cached in zip(entries, outcomes, cached_flags)
        }

    # ------------------------------------------------------------------
    # Cross-replica coherence
    # ------------------------------------------------------------------
    def table_invalidated(self, table_name: str) -> None:
        if self._closed:
            return
        database = self.service.maliva.database
        if not database.has_table(table_name):  # pragma: no cover - dropped
            return
        table = database.table(table_name)
        indexed = tuple(sorted(database.indexes_for(table_name)))
        stats = database.stats(table_name)
        deadline_s = self._group.setup_deadline_s()
        # Dead slots skip the sync: their respawn rebuilds from the live
        # catalog and cannot go stale.
        delivered = self._group.call_live(
            lambda slot: slot.handle.router_sync(table, indexed, stats, deadline_s)
        )
        if delivered and self._router_stats is not None:
            self._router_stats.n_syncs += 1
