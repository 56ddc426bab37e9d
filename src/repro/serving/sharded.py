"""Multi-process sharded serving behind a fault-tolerant shard router.

:class:`ShardedMalivaService` is the production-scaling layer DESIGN.md
§4.3–§4.4 reserve below :class:`~repro.serving.service.MalivaService`:
the staged resolve → schedule pipeline is inherited unchanged, and both
heavy stages are swapped for scatter/gather across N workers, each running
in its own process over a row slice (contiguous ``rows``, round-robin
``rows-strided``) or an owned set of whole tables:

* **planning** — decision-cache miss groups are chunked round-robin across
  the workers' :class:`~repro.serving.planner_replica.PlannerReplica`
  stacks (replicated sample tables, statistics, and catalog headers);
  accurate-QTE oracle values resolve through one batched router RPC per
  lockstep wave, serviced inline while the router gathers.  Decisions are
  bit-identical to router planning, so the decision cache and virtual
  planning times are unchanged.  Unsupported QTEs fall back to the
  router's own ``rewrite_batch``.
* **rows execution** — every scatter-eligible plan (no join) is sent to
  *all* shards; each worker scans its slice with fused index probes and
  fused BIN_ID sweeps and reports stage cardinalities
  (:class:`~repro.db.sharding.ScanCardinalities`), global-id rows, and raw
  integer bin counts; the router merges them into the canonical
  single-engine outcome (:func:`repro.db.sharding.merge_scatter`) and
  charges profile effects once, on its own engine.
* **table execution** — each query runs wholly on the shard owning its
  scan table (joins require the inner table to be co-located); the
  worker's execution *is* canonical because it holds the full tables.
* **fallback** — joins in rows modes, hint-ignoring draws, and unowned
  tables execute on the router's full engine, preserving the equivalence
  contract trivially.

Transport, fault interpretation, deadlines, and the death → warm respawn →
breaker life-cycle are the shared substrate in :mod:`repro.serving.fleet`
(its docstring carries the failure model); this module contributes the
shard op table, the :class:`ShardHandle` reply checks, and the tier's
reactions.  A respawning slot rebuilds a fresh
:class:`~repro.db.sharding.ShardSpec` from the *live* catalog
(:func:`~repro.db.sharding.rebuild_shard_spec`).  When the breaker retires
a shard, surviving rows-mode shards re-slice to the smaller arity (rank
order follows shard-id order, so merged concatenation stays canonical) and
orphaned table-mode groups are re-adopted round-robin; subsequent batches
scatter across the smaller fleet.

A note on per-request engine-cache deltas: outcomes served by this class
attribute cache activity from the *execute phase only*.  Scattered queries
report 0/0 (their physical cache traffic lands in per-shard
``ShardStats`` windows), and fallback queries report the
``execute_planned`` window — the classification-stage plan lookup is a
batch cost, not a per-request one.  The single-engine service folds that
plan lookup into each request's delta, so the two deployments agree on
every equivalence-contract field but not on this observability counter.

Coherence: the service registers the same engine invalidation hook as the
single-engine service; any catalog change on the router database —
`append_rows`, `create_index`, direct `Database` calls included — re-slices
the affected table and broadcasts a ``sync_table`` to every worker, which
replaces its copy, rebuilds its indexes, and evicts derived cache state.
Router planning decisions are additionally mirrored to worker replicas
(``mirror`` op) so repeated miss leaders plan from cache shard-side; the
mirror is evicted wholesale on every planner sync, which keeps it exactly
as coherent as the replica state it fronts.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.middleware import Maliva, RequestOutcome
from ..db import SelectQuery
from ..db.caches import CacheStatsReport
from ..db.sharding import (
    FULL,
    PARTIAL,
    ShardBatchReply,
    ShardEngine,
    ShardEntry,
    build_shard_specs,
    merge_scatter,
    rebuild_shard_spec,
    reslice_for_sync,
    rows_partitioned,
    scatter_eligible,
)
from ..errors import QueryError
from .faults import FaultPlan, WorkerFault
from .fleet import SupervisedFleet, SupervisedSlot, WorkerHandle, wait_replies
from .planner_replica import (
    PlannerReplica,
    PlannerSpec,
    PlannerSync,
    planner_spec_for,
    planner_sync_for,
    resolve_probe_rpc,
)
from .requests import VizRequest
from .service import MalivaService, _InflightExecution, _PlannedBatch
from .stats import RequestRecord, ShardStats


def shard_ops(upcall) -> dict:
    """The shard worker's op table: a shard engine plus a planner replica.

    While a ``plan`` op runs, the replica's accurate-QTE proxy may need
    oracle values only the router's full engine holds; it ``upcall``s a
    ``(pairs, queries)`` payload and blocks on the answer, which the
    router services inline during its gather
    (:meth:`ShardHandle.init_planner` installs the resolver).
    """
    engine: ShardEngine | None = None
    replica: PlannerReplica | None = None

    def init(spec) -> None:
        nonlocal engine
        engine = ShardEngine(spec)

    def sync(payload) -> None:
        table, indexed_columns = payload
        engine.sync_table(table, indexed_columns)

    def init_planner(spec) -> None:
        nonlocal replica
        replica = PlannerReplica(
            spec, lambda pairs, queries: upcall((list(pairs), list(queries)))
        )

    def plan(payload):
        queries, taus = payload
        before = replica.mirror_hits
        started = time.perf_counter()
        decisions = replica.rewrite_batch(queries, taus)
        wall_s = time.perf_counter() - started
        return decisions, wall_s, replica.mirror_hits - before

    return {
        "init": init,
        "execute": lambda entries: engine.execute(entries),
        "sync": sync,
        "init_planner": init_planner,
        "plan": plan,
        "sync_planner": lambda planner_sync: replica.apply_sync(planner_sync),
        "mirror": lambda items: replica.absorb_mirror(items),
        "cache_stats": lambda _: engine.cache_stats(),
    }


class ShardHandle(WorkerHandle):
    """Router-side handle of one shard worker: one method per op, each
    holding that op's payload shape check."""

    def __init__(self, fleet: SupervisedFleet, spec) -> None:
        self.shard_id = spec.shard_id
        self.owned_tables = spec.owned_tables
        super().__init__(fleet, spec.shard_id, shard_ops, spec)

    def submit_execute(self, entries: Sequence[ShardEntry]) -> None:
        self._channel.send("execute", list(entries))

    def collect(self, deadline_s: float | None = None, expected: int | None = None):
        reply = self._reply("execute", deadline_s, ShardBatchReply)
        self._check_count("execute", len(reply.reports), expected)
        return reply

    def init_planner(self, spec: PlannerSpec, rpc) -> None:
        """Ship the planner replica spec; keep the router-side RPC resolver
        for the worker's mid-plan probe upcalls (which also warm the
        router's own QTE memos, exactly as local planning would)."""
        self._channel.on_upcall = lambda payload: rpc(*payload)
        try:
            self._request("init_planner", spec, self._setup_deadline_s)
        except Exception:
            self.close(graceful=False)
            raise

    def submit_plan(self, queries, taus) -> None:
        self._channel.send("plan", (list(queries), list(taus)))

    def collect_plan(
        self, deadline_s: float | None = None, expected: int | None = None
    ):
        """Gather a plan reply: ``(decisions, wall_s, mirror_hits)``."""
        reply = self._reply("plan", deadline_s, tuple)
        if len(reply) != 3 or not isinstance(reply[0], list):
            raise WorkerFault(f"{self._channel.label}: garbled plan reply {reply!r}")
        decisions, wall_s, mirror_hits = reply
        self._check_count("plan", len(decisions), expected)
        return decisions, float(wall_s), int(mirror_hits)

    def mirror_decisions(self, items, deadline_s: float | None = None) -> None:
        self._request("mirror", list(items), deadline_s)

    def sync_table(
        self, table, indexed_columns, deadline_s: float | None = None
    ) -> None:
        self._request("sync", (table, tuple(indexed_columns)), deadline_s)

    def sync_planner(
        self, sync: PlannerSync, deadline_s: float | None = None
    ) -> None:
        self._request("sync_planner", sync, deadline_s)

    def cache_stats(self, deadline_s: float | None = None):
        return self._request("cache_stats", None, deadline_s, CacheStatsReport)


class _ScatterState:
    """One scatter/gather in progress: targets, cursors, gathered reports.

    Produced by :meth:`ShardedMalivaService._scatter_begin` after the first
    submit round; :meth:`ShardedMalivaService._scatter_finish` drains the
    remaining collect/submit rounds.  Splitting the loop at that seam lets
    the async tier plan the next batch while workers crunch round one.
    """

    __slots__ = (
        "targets",
        "offsets",
        "rows_mode",
        "deadline_s",
        "aborted",
        "reports",
        "round_ids",
    )

    def __init__(
        self,
        targets: dict[int, tuple[SupervisedSlot, list[ShardEntry]]],
        rows_mode: bool,
        deadline_s: float | None,
    ) -> None:
        self.targets = targets
        self.offsets = {shard_id: 0 for shard_id in targets}
        self.rows_mode = rows_mode
        self.deadline_s = deadline_s
        self.aborted = False
        self.reports: dict[int, list] = {}
        self.round_ids: list[tuple[int, int]] = []


class _ShardedInflight:
    """Classification + scatter bookkeeping between execute begin/finish."""

    __slots__ = (
        "execute_started",
        "jobs",
        "scatter_positions",
        "owner_positions",
        "fallback_indexes",
        "recovered",
        "scatter_ids",
        "scatter_state",
    )



class ShardedMalivaService(MalivaService):
    """Scatter/gather serving over N supervised shard engines."""

    def __init__(
        self,
        maliva: Maliva,
        *,
        n_shards: int = 2,
        shard_by: str = "rows",
        processes: bool = True,
        start_method: str | None = None,
        worker_batch_size: int | None = None,
        plan_on_shards: bool = True,
        rpc_deadline_ms: float | None = 10_000.0,
        deadline_tau_factor: float = 1.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        mirror_decisions: bool = True,
        fault_plan: FaultPlan | None = None,
        **kwargs,
    ) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be at least 1, got {n_shards}")
        if worker_batch_size is not None and worker_batch_size < 1:
            raise QueryError("worker_batch_size must be at least 1")
        # The invalidation hook the base constructor registers dispatches to
        # our override, which broadcasts; an unspawned fleet (no live
        # handles) makes that a no-op until the workers exist.
        self._fleet = SupervisedFleet(
            self._build_handle,
            n_shards,
            kind="shard",
            on_death=self._on_worker_death,
            processes=processes,
            start_method=start_method,
            fault_plan=fault_plan,
            rpc_deadline_ms=rpc_deadline_ms,
            deadline_tau_factor=deadline_tau_factor,
            max_respawns=max_respawns,
            respawn_backoff_s=respawn_backoff_s,
        )
        self._slots: list[SupervisedSlot] = self._fleet.slots
        self._closed = False
        #: True between _execute_begin and _execute_finish: the worker
        #: pipes carry in-flight execute replies, so no other op may use
        #: them until the batch is collected.
        self._execute_inflight = False
        #: Decisions planned on the router during an overlapped batch,
        #: mirrored to worker replicas once the pipes are free again.
        self._pending_mirror: list[tuple[list, list, list]] = []
        super().__init__(maliva, **kwargs)
        self.n_shards = n_shards
        self.shard_by = shard_by
        self.processes = processes
        #: Cap on entries per worker round-trip; a saturated worker serves
        #: an oversized batch in successive chunks (outcome-invariant).
        self.worker_batch_size = worker_batch_size
        self.plan_on_shards = plan_on_shards
        self.mirror_decisions = mirror_decisions
        # Table mode: whole base tables (plus their samples) are owned
        # round-robin.  Rows modes own nothing — every shard holds a slice
        # of every table.
        self._table_owner = (
            {}
            if rows_partitioned(shard_by)
            else {
                name: spec.shard_id
                for spec in build_shard_specs(maliva.database, n_shards, shard_by)
                for name in spec.owned_tables
            }
        )
        # Replicate the planning state so decision-cache misses scatter
        # too.  An unsupported QTE leaves planning on the router
        # (_rewrite_misses falls through to the base class), counted as
        # plan fallbacks.
        self._plan_scattered = (
            plan_on_shards and planner_spec_for(maliva) is not None
        )
        self._fleet.spawn()
        self.stats.shards = self._new_shard_stats()

    def _build_handle(self, slot: SupervisedSlot) -> ShardHandle:
        """Warm-(re)spawn one slot from the live catalog, bit-coherent."""
        active = self._active_slots()
        owned = sorted(
            name
            for name, owner in self._table_owner.items()
            if owner == slot.shard_id
        )
        spec = rebuild_shard_spec(
            self.maliva.database,
            slot.shard_id,
            active.index(slot),
            len(active),
            self.shard_by,
            owned,
        )
        handle = ShardHandle(self._fleet, spec)
        if self._plan_scattered:
            handle.init_planner(planner_spec_for(self.maliva), self._probe_rpc)
        return handle

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    @property
    def _handles(self) -> list:
        """Live handles, in shard-id order (dead/retired slots omitted)."""
        return [slot.handle for slot in self._fleet.live_slots()]

    def _active_slots(self) -> list[SupervisedSlot]:
        return self._fleet.active_slots()

    def _new_shard_stats(self) -> ShardStats:
        return ShardStats(shard_by=self.shard_by, n_shards=self.n_shards)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.stats.shards = self._new_shard_stats()

    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        self._closed = True
        self._fleet.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    def report(self) -> dict:
        report = super().report()
        # Worker cache probes share the duplex pipes with in-flight execute
        # replies; skip them mid-batch (the async tier may report between
        # overlapped chunks) rather than desync the protocol.
        if not self._closed and not self._execute_inflight:
            deadline_s = self._fleet.call_deadline_s()
            report["shard_caches"] = {
                str(slot.shard_id): stats.to_dict()
                for slot, stats in self._fleet.call_live(
                    lambda slot: slot.handle.cache_stats(deadline_s)
                )
            }
        return report

    # ------------------------------------------------------------------
    # Supervision reactions: stats, rebalance on retirement
    # ------------------------------------------------------------------
    def _on_worker_death(self, slot: SupervisedSlot) -> None:
        if self.stats.shards is not None:
            self.stats.shards.record_death(slot.shard_id, slot.last_fault)

    def _ensure_workers(self) -> None:
        """Respawn/retire at the top of every plan/execute stage — never
        mid-batch — then re-partition around any retirement."""
        respawned, retired = self._fleet.ensure()
        if self.stats.shards is not None:
            for slot in respawned:
                self.stats.shards.record_respawn(slot.shard_id)
            for slot in retired:
                self.stats.shards.record_retired(slot.shard_id)
        if retired:
            self._do_rebalance()

    def _sync_slices(self, table_name: str, deadline_s: float | None) -> None:
        """Re-slice one table at the active arity and sync the live shards.

        Dead slots skip the sync: their respawn rebuilds from the live
        catalog at the current arity and cannot go stale.
        """
        database = self.maliva.database
        active = self._active_slots()
        slices = reslice_for_sync(database, table_name, len(active), self.shard_by)
        fresh = {slot.shard_id: part for slot, part in zip(active, slices)}
        indexed = tuple(sorted(database.indexes_for(table_name)))
        self._fleet.call_live(
            lambda slot: slot.handle.sync_table(
                fresh[slot.shard_id], indexed, deadline_s
            )
        )

    def _sync_owner(self, table_name: str, deadline_s: float | None) -> None:
        """Table mode: ship one whole table to the shard that owns it."""
        owner = self._table_owner.get(table_name)
        if owner is None:
            return
        database = self.maliva.database
        indexed = tuple(sorted(database.indexes_for(table_name)))
        self._fleet.call_live(
            lambda slot: slot.handle.sync_table(
                database.table(table_name), indexed, deadline_s
            ),
            [self._slots[owner]],
        )

    def _do_rebalance(self) -> None:
        """Re-partition the survivors after a breaker retirement.

        Rows modes re-slice every table at the new (smaller) arity —
        rank order follows shard-id order, so ``sorted(shard_id)``
        concatenation of reports stays the canonical row order.  Table
        mode re-adopts orphaned base-table groups (base plus its
        samples, which must stay co-located) round-robin.
        """
        if self._closed:
            return
        if self.stats.shards is not None:
            self.stats.shards.n_rebalances += 1
        active = self._active_slots()
        if not active:
            # Whole fleet retired: every request recovers on the router.
            return
        database = self.maliva.database
        deadline_s = self._fleet.setup_deadline_s()
        if rows_partitioned(self.shard_by):
            for name in sorted(database.table_names):
                self._sync_slices(name, deadline_s)
            return
        orphaned = sorted(
            name
            for name, owner in self._table_owner.items()
            if self._slots[owner].retired
        )
        groups: dict[str, list[str]] = {}
        for name in orphaned:
            if not database.has_table(name):  # pragma: no cover - dropped
                continue
            table = database.table(name)
            base = table.base_table if table.is_sample else name
            groups.setdefault(base, []).append(name)
        for position, base in enumerate(sorted(groups)):
            slot = active[position % len(active)]
            for name in sorted(groups[base]):
                self._table_owner[name] = slot.shard_id
                self._sync_owner(name, deadline_s)

    # ------------------------------------------------------------------
    # Cross-shard coherence
    # ------------------------------------------------------------------
    def _on_table_invalidated(self, table_name: str) -> None:
        super()._on_table_invalidated(table_name)
        if self._execute_inflight:
            # The router's decision cache is already evicted (above), but a
            # sync broadcast would interleave with in-flight execute
            # replies on the worker pipes.  The async tier quiesces via
            # drain() before mutating; anything else is a caller bug.
            raise QueryError(
                f"table {table_name!r} mutated while a sharded execute "
                f"batch is in flight; drain the async service before "
                f"mutating"
            )
        database = self.maliva.database
        if self._closed or not database.has_table(table_name):
            return
        deadline_s = self._fleet.setup_deadline_s()
        if not rows_partitioned(self.shard_by):
            self._sync_owner(table_name, deadline_s)
        elif self._active_slots():
            self._sync_slices(table_name, deadline_s)
        if self._plan_scattered:
            # Planner replicas carry their own copy of the mutated table's
            # header/sample/statistics state; every live worker refreshes
            # it (and evicts its decision mirror with it).
            sync = planner_sync_for(database, table_name)
            self._fleet.call_live(
                lambda slot: slot.handle.sync_planner(sync, deadline_s)
            )
        if self.stats.shards is not None:
            self.stats.shards.n_syncs += 1

    # ------------------------------------------------------------------
    # The scattered plan stage
    # ------------------------------------------------------------------
    def _probe_rpc(self, pairs, queries):
        """Router half of the worker planners' oracle-value channel."""
        return resolve_probe_rpc(self.maliva.qte, pairs, queries)

    def _rewrite_misses(self, queries, taus):
        """Scatter the deduplicated miss leaders across worker planners.

        Leaders are chunked round-robin over the *live* fleet —
        deterministic given fleet health, and bit-identical to router
        planning regardless of which worker plans what (the twin-planning
        property), so fleet churn never changes a decision.  Chunks lost
        to a dead worker replan on the router; planned decisions are then
        mirrored back to the live replicas so repeat leaders hit their
        shard-side cache.
        """
        shard_stats = self.stats.shards
        if self._closed:
            raise QueryError("sharded service is closed")
        if self._execute_inflight:
            # Overlapped planning: the duplex pipes are mid-execute-batch,
            # so worker plan RPCs (and supervision's sync traffic) would
            # desync them.  Plan on the router — bit-identical by the
            # twin-planning property — and mirror once the batch lands.
            decisions = MalivaService._rewrite_misses(self, queries, taus)
            if shard_stats is not None:
                shard_stats.n_plan_overlapped += len(queries)
            if self.mirror_decisions and self._plan_scattered:
                self._pending_mirror.append(
                    (list(queries), list(taus), list(decisions))
                )
            return decisions
        if self._plan_scattered:
            self._ensure_workers()
        live = self._fleet.live_slots()
        if not self._plan_scattered or not live:
            if shard_stats is not None:
                shard_stats.n_plan_fallback += len(queries)
            return super()._rewrite_misses(queries, taus)
        per_slot: dict[int, list[int]] = {}
        for position in range(len(queries)):
            slot = live[position % len(live)]
            per_slot.setdefault(slot.shard_id, []).append(position)
        deadline_s = self._fleet.call_deadline_s(max(taus) if taus else None)
        # Every chunk is submitted before any reply is gathered, so the
        # workers plan concurrently; call_live drops the slots that died.
        submitted = self._fleet.call_live(
            lambda slot: slot.handle.submit_plan(
                [queries[p] for p in per_slot[slot.shard_id]],
                [taus[p] for p in per_slot[slot.shard_id]],
            ),
            [self._slots[shard_id] for shard_id in sorted(per_slot)],
        )
        gathered = self._fleet.call_live(
            lambda slot: slot.handle.collect_plan(
                deadline_s, len(per_slot[slot.shard_id])
            ),
            [slot for slot, _ in submitted],
        )
        decisions: list = [None] * len(queries)
        for slot, (planned, wall_s, mirror_hits) in gathered:
            shard_id = slot.shard_id
            for position, decision in zip(per_slot[shard_id], planned):
                decisions[position] = decision
            if shard_stats is not None:
                shard_stats.record_plan(
                    shard_id, len(planned), wall_s, mirror_hits
                )
        planned_ids = {slot.shard_id for slot, _ in gathered}
        router_positions: list[int] = []
        for shard_id in sorted(per_slot.keys() - planned_ids):
            router_positions.extend(per_slot[shard_id])
            if shard_stats is not None:
                shard_stats.record_plan_recovered(
                    shard_id, len(per_slot[shard_id])
                )
        if router_positions:
            # Replan the lost chunks locally — bit-identical decisions, so
            # the decision cache and virtual planning times are unchanged.
            router_positions.sort()
            replanned = super()._rewrite_misses(
                [queries[p] for p in router_positions],
                [taus[p] for p in router_positions],
            )
            for position, decision in zip(router_positions, replanned):
                decisions[position] = decision
        if shard_stats is not None:
            shard_stats.n_plan_scattered += len(queries) - len(router_positions)
        self._broadcast_mirror(queries, taus, decisions)
        return decisions

    def _broadcast_mirror(self, queries, taus, decisions) -> None:
        """Mirror freshly planned decisions to the live worker replicas."""
        if not self.mirror_decisions or not self._plan_scattered:
            return
        items = [
            ((query.key(), tau), decision)
            for query, tau, decision in zip(queries, taus, decisions)
            if decision is not None
        ]
        if not items:
            return
        deadline_s = self._fleet.setup_deadline_s()
        delivered = self._fleet.call_live(
            lambda slot: slot.handle.mirror_decisions(items, deadline_s)
        )
        if delivered and self.stats.shards is not None:
            self.stats.shards.n_mirrored_decisions += len(items)

    def _flush_pending_mirror(self) -> None:
        """Deliver mirrors deferred by overlapped (router-side) planning."""
        if not self._pending_mirror:
            return
        pending, self._pending_mirror = self._pending_mirror, []
        for queries, taus, decisions in pending:
            self._broadcast_mirror(queries, taus, decisions)
            if self.stats.shards is not None:
                self.stats.shards.n_deferred_mirrors += len(queries)

    # ------------------------------------------------------------------
    # The scattered execute stage
    # ------------------------------------------------------------------
    def _execute_begin(self, planned: _PlannedBatch) -> _InflightExecution:
        """Classify and scatter-submit the first worker round, then return.

        Shard processes crunch the submitted round while the caller (the
        async tier) plans the next micro-batch; :meth:`_execute_finish`
        collects, runs any remaining rounds, and assembles.  Between the
        two calls the worker pipes are reserved for execute replies —
        ``_execute_inflight`` reroutes planning to the router and defers
        mirror/sync traffic.  Quality-scored batches keep the base token:
        they execute sequentially inside finish.
        """
        if self.quality_fn is not None or self._closed:
            # Base token; finish routes through self._execute_stage, which
            # runs the sequential quality path (and raises when closed).
            return super()._execute_begin(planned)
        if self._execute_inflight:
            raise QueryError(
                "sharded service already has an execute batch in flight"
            )
        state = self._sharded_execute_begin(planned)
        self._execute_inflight = True
        return _InflightExecution(planned=planned, state=state)

    async def _execute_wait(self, token: _InflightExecution) -> None:
        """Poll the submitted round's worker pipes without blocking the
        loop (:func:`~repro.serving.fleet.wait_replies`).  Later rounds of
        a chunked batch block inside finish as usual."""
        state = token.state
        if not isinstance(state, _ShardedInflight):
            await super()._execute_wait(token)
            return
        scatter = state.scatter_state
        await wait_replies(
            [scatter.targets[shard_id][0] for shard_id, _ in scatter.round_ids],
            scatter.deadline_s,
        )

    def _execute_finish(self, token: _InflightExecution) -> list[RequestOutcome]:
        state = token.state
        if not isinstance(state, _ShardedInflight):
            return super()._execute_finish(token)
        try:
            outcomes = self._sharded_execute_finish(token.planned, state)
            return [outcome for outcome in outcomes if outcome is not None]
        finally:
            self._execute_inflight = False
            self._flush_pending_mirror()

    def _execute_stage(
        self,
        requests: Sequence[VizRequest],
        resolved: list[tuple[SelectQuery, float]],
        order: list[int],
        decisions: list[object | None],
        cached_flags: list[bool],
        shared_s: float,
    ) -> list[RequestOutcome | None]:
        if self.quality_fn is not None:
            # Quality scoring interleaves extra engine work per request;
            # the sequential single-engine path preserves its semantics.
            return super()._execute_stage(
                requests, resolved, order, decisions, cached_flags, shared_s
            )
        if self._closed:
            raise QueryError("sharded service is closed")
        planned = _PlannedBatch(
            requests=list(requests),
            resolved=resolved,
            order=order,
            decisions=decisions,
            cached_flags=cached_flags,
            shared_s=shared_s,
        )
        return self._sharded_execute_finish(
            planned, self._sharded_execute_begin(planned)
        )

    def _sharded_execute_begin(self, planned: _PlannedBatch) -> _ShardedInflight:
        """Classification plus the first scatter round (the overlap point)."""
        resolved = planned.resolved
        order = planned.order
        decisions = planned.decisions
        database = self.maliva.database
        state = _ShardedInflight()
        state.execute_started = time.perf_counter()
        self._ensure_workers()

        rows_mode = rows_partitioned(self.shard_by)
        active = self._active_slots()
        scatter_slots = [slot for slot in active if slot.handle is not None]
        # Rows-mode scatter needs reports from *every* active slot (the
        # partition's arity); one dead survivor routes the whole
        # scatter-eligible set through router recovery instead.
        scatter_ready = (
            rows_mode and bool(active) and len(scatter_slots) == len(active)
        )
        blocking_shard: int | None = None
        if rows_mode and not scatter_ready:
            for slot in self._slots:
                if slot.retired or slot.handle is None:
                    blocking_shard = slot.shard_id
                    break

        # Classify the scheduled batch.  begin_execution consumes the
        # hint-obey draw and the plan-cache sequence in scheduled order,
        # exactly as single-engine execution would — which is also what
        # makes recovered entries bit-identical: they re-execute below in
        # that same order, against the same consumed draws.
        jobs = []  # (index, query, tau, decision, plan, obeyed, was_planned)
        scatter_positions: dict[int, int] = {}  # index -> entry position
        owner_positions: dict[int, tuple[int, int]] = {}  # index -> (shard, pos)
        fallback_indexes: list[int] = []  # structural router executions
        recovered: dict[int, list[int]] = {}  # shard -> health-recovered idx
        entries: list[ShardEntry] = []
        per_owner_entries: dict[int, list[ShardEntry]] = {}
        for index in order:
            query, tau = resolved[index]
            decision = decisions[index]
            rewritten = decision.rewritten  # type: ignore[union-attr]
            plan, obeyed, was_planned = database.begin_execution(rewritten)
            jobs.append((index, query, tau, decision, plan, obeyed, was_planned))
            if not obeyed:
                fallback_indexes.append(index)
                continue
            if rows_mode:
                if not scatter_eligible(plan):
                    fallback_indexes.append(index)
                elif scatter_ready:
                    scatter_positions[index] = len(entries)
                    entries.append(ShardEntry(rewritten, plan, PARTIAL))
                else:
                    recovered.setdefault(
                        blocking_shard if blocking_shard is not None else 0, []
                    ).append(index)
            else:
                owner = self._table_owner.get(plan.scan.table)
                co_located = owner is not None and (
                    plan.join is None
                    or self._table_owner.get(plan.join.inner_table) == owner
                )
                if not co_located:
                    fallback_indexes.append(index)
                    continue
                slot = self._slots[owner]
                if slot.retired or slot.handle is None:
                    recovered.setdefault(owner, []).append(index)
                else:
                    shard_entries = per_owner_entries.setdefault(owner, [])
                    owner_positions[index] = (owner, len(shard_entries))
                    shard_entries.append(ShardEntry(rewritten, plan, FULL))

        # Scatter (workers run while the router plans the next batch or
        # handles fallbacks), in rounds of at most worker_batch_size
        # entries per shard.  Reports may come back incomplete if workers
        # die mid-stream.
        state.jobs = jobs
        state.scatter_positions = scatter_positions
        state.owner_positions = owner_positions
        state.fallback_indexes = fallback_indexes
        state.recovered = recovered
        state.scatter_ids = sorted(slot.shard_id for slot in scatter_slots)
        deadline_s = self._fleet.call_deadline_s(
            max((resolved[i][1] for i in order), default=None)
        )
        state.scatter_state = self._scatter_begin(
            entries,
            per_owner_entries,
            scatter_slots if rows_mode else None,
            deadline_s,
        )
        return state

    def _sharded_execute_finish(
        self, planned: _PlannedBatch, state: _ShardedInflight
    ) -> list[RequestOutcome | None]:
        """Drain the scatter, assemble outcomes, and record request stats."""
        requests = planned.requests
        resolved = planned.resolved
        order = planned.order
        cached_flags = planned.cached_flags
        shared_s = planned.shared_s
        database = self.maliva.database
        shard_stats = self.stats.shards
        execute_started = state.execute_started
        jobs = state.jobs
        scatter_positions = state.scatter_positions
        owner_positions = state.owner_positions
        fallback_indexes = state.fallback_indexes
        recovered = state.recovered
        scatter_ids = state.scatter_ids
        reports = self._scatter_finish(state.scatter_state)

        # Assemble outcomes in scheduled order.  A scatter entry is
        # shard-served only if *every* required shard reported it; anything
        # less re-executes on the router, bit-identically.
        outcomes: list[RequestOutcome | None] = [None] * len(requests)
        fallback_set = set(fallback_indexes)
        recovered_shard = {
            index: shard_id
            for shard_id, indexes in recovered.items()
            for index in indexes
        }
        mid_recovered: dict[int, int] = {}
        n_shard_served = 0
        for index, query, tau, decision, plan, obeyed, was_planned in jobs:
            rewritten = decision.rewritten  # type: ignore[union-attr]
            if index in fallback_set or index in recovered_shard:
                result = database.execute_planned(
                    plan, rewritten, obeyed=obeyed, was_planned=was_planned
                )
            elif index in scatter_positions:
                position = scatter_positions[index]
                complete = all(
                    len(reports.get(sid, [])) > position for sid in scatter_ids
                )
                if complete:
                    counters, row_ids, bins = merge_scatter(
                        database,
                        plan,
                        [reports[sid][position] for sid in scatter_ids],
                        # Contiguous slices concatenate in canonical order;
                        # strided slices interleave and need the merge's
                        # sort.
                        presorted=self.shard_by != "rows-strided",
                    )
                    result = database.complete_execution(
                        plan,
                        counters,
                        row_ids,
                        bins,
                        obeyed=obeyed,
                        was_planned=was_planned,
                    )
                    n_shard_served += 1
                else:
                    result = database.execute_planned(
                        plan, rewritten, obeyed=obeyed, was_planned=was_planned
                    )
                    victim = min(
                        scatter_ids, key=lambda sid: len(reports.get(sid, []))
                    )
                    mid_recovered[victim] = mid_recovered.get(victim, 0) + 1
            else:
                shard_id, position = owner_positions[index]
                shard_reports = reports.get(shard_id, [])
                if len(shard_reports) > position:
                    shard_report = shard_reports[position]
                    result = database.complete_execution(
                        plan,
                        shard_report.counters,
                        shard_report.row_ids,
                        shard_report.bins,
                        obeyed=obeyed,
                        was_planned=was_planned,
                    )
                    n_shard_served += 1
                else:
                    result = database.execute_planned(
                        plan, rewritten, obeyed=obeyed, was_planned=was_planned
                    )
                    mid_recovered[shard_id] = mid_recovered.get(shard_id, 0) + 1
            outcomes[index] = self.maliva.assemble_outcome(
                query, decision, tau, result
            )

        if shard_stats is not None:
            shard_stats.n_scattered += n_shard_served
            shard_stats.n_fallback += len(fallback_set)
            for shard_id, indexes in recovered.items():
                shard_stats.record_recovered(shard_id, len(indexes))
            for shard_id, count in mid_recovered.items():
                shard_stats.record_recovered(shard_id, count)

        execute_share = (time.perf_counter() - execute_started) / len(requests)
        for index in order:
            outcome = outcomes[index]
            assert outcome is not None
            request = requests[index]
            self.stats.record(
                RequestRecord(
                    request_id=request.request_id,
                    session_id=request.effective_session(),
                    tau_ms=resolved[index][1],
                    planning_ms=outcome.planning_ms,
                    execution_ms=outcome.execution_ms,
                    viable=outcome.viable,
                    wall_s=execute_share + shared_s,
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses,
                    decision_cached=cached_flags[index],
                )
            )
        self.stats.record_stage("execute", time.perf_counter() - execute_started)
        return outcomes

    def _scatter(
        self,
        entries: list[ShardEntry],
        per_owner_entries: dict[int, list[ShardEntry]],
        scatter_slots: list[SupervisedSlot] | None,
        deadline_s: float | None,
    ) -> dict[int, list]:
        """Ship entry batches to the shards and gather their reports.

        Rows mode sends the same entry list to every scatter slot; table
        mode sends each owner its own list.  Batches are chunked to
        ``worker_batch_size`` per round-trip; every shard's chunk is
        submitted before any reply is collected, so worker processes run
        the round concurrently.  A worker failure marks its slot dead and
        — in rows mode, where later rounds could not be merged anyway —
        aborts further rounds after draining the current one; the reports
        map simply comes back incomplete and the caller recovers the
        unreported entries on the router.

        Split into :meth:`_scatter_begin` (build targets, submit round
        one) and :meth:`_scatter_finish` (collect/submit the remaining
        rounds) so the async tier can plan between the two.
        """
        return self._scatter_finish(
            self._scatter_begin(entries, per_owner_entries, scatter_slots, deadline_s)
        )

    def _scatter_begin(
        self,
        entries: list[ShardEntry],
        per_owner_entries: dict[int, list[ShardEntry]],
        scatter_slots: list[SupervisedSlot] | None,
        deadline_s: float | None,
    ) -> _ScatterState:
        """Build the scatter targets and submit the first round."""
        targets: dict[int, tuple[SupervisedSlot, list[ShardEntry]]] = {}
        if scatter_slots is not None:
            if entries:
                for slot in scatter_slots:
                    targets[slot.shard_id] = (slot, entries)
        else:
            for shard_id, shard_entries in per_owner_entries.items():
                slot = self._slots[shard_id]
                if slot.handle is None:  # pragma: no cover - died post-classify
                    continue
                targets[shard_id] = (slot, shard_entries)
        state = _ScatterState(targets, scatter_slots is not None, deadline_s)
        if targets:
            state.round_ids = self._submit_round(state)
        return state

    def _submit_round(self, state: _ScatterState) -> list[tuple[int, int]]:
        """Submit one chunked round to every live target; workers overlap."""
        chunk = self.worker_batch_size
        round_ids: list[tuple[int, int]] = []
        for shard_id in sorted(state.targets):
            slot, shard_entries = state.targets[shard_id]
            if slot.handle is None:
                continue
            offset = state.offsets[shard_id]
            if offset >= len(shard_entries):
                continue
            stop = (
                len(shard_entries)
                if chunk is None
                else min(offset + chunk, len(shard_entries))
            )
            try:
                slot.handle.submit_execute(shard_entries[offset:stop])
            except WorkerFault as error:
                self._fleet.record_death(slot, error)
                if state.rows_mode:
                    state.aborted = True
                continue
            state.offsets[shard_id] = stop
            round_ids.append((shard_id, stop - offset))
        return round_ids

    def _collect_round(
        self, state: _ScatterState, round_ids: list[tuple[int, int]]
    ) -> None:
        """Gather one submitted round into the state's reports map."""
        shard_stats = self.stats.shards
        for shard_id, expected in round_ids:
            slot, _ = state.targets[shard_id]
            if slot.handle is None:
                continue
            # Drain every submitted shard even after a failure — an
            # uncollected reply would desync the pipe protocol for
            # whatever batch comes next.
            try:
                reply = slot.handle.collect(state.deadline_s, expected)
            except WorkerFault as error:
                self._fleet.record_death(slot, error)
                if state.rows_mode:
                    state.aborted = True
                continue
            state.reports.setdefault(shard_id, []).extend(reply.reports)
            if shard_stats is not None:
                shard_stats.record_shard(shard_id, reply)

    def _scatter_finish(self, state: _ScatterState) -> dict[int, list]:
        """Collect the in-flight round, then run any remaining rounds."""
        round_ids = state.round_ids
        while round_ids:
            self._collect_round(state, round_ids)
            if state.aborted:
                break
            round_ids = self._submit_round(state)
        return state.reports
