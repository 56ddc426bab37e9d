"""The scatter execute stage: a fault-tolerant shard router.

:class:`ScatterExecute` is the :class:`~repro.serving.service.
ExecuteStage` that scales execution past one process (DESIGN.md §4.3.1):
``MalivaService(maliva, execute=ScatterExecute(n_shards=…))`` keeps the
staged resolve → schedule → plan pipeline as it is — planning stays on the
router (DESIGN.md §4.4 records why) — and executes by scatter/gather
across N workers, each running in its own process over one contiguous row
slice of every table.  Each scheduled request is one of three things:

* **scattered** — a joinless plan the engine obeyed is sent to *all*
  shards; each worker scans its slice with fused index probes and fused
  BIN_ID sweeps and reports stage cardinalities
  (:class:`~repro.db.executor.ScanCardinalities`), global-id rows, and raw
  integer bin counts; the router merges them into the canonical
  single-engine outcome (:func:`repro.db.sharding.merge_scatter`) and
  charges profile effects once, on its own engine.
* **fallback** — joins and hint-ignoring draws execute on the router's
  full engine, preserving the equivalence contract trivially.
* **recovered** — a scattered plan some shard could not report (dead,
  retired, or failed mid-batch) re-executes on the router, bit-identically.

Transport, fault interpretation, deadlines, and the death → warm respawn →
breaker life-cycle are the shared substrate in :mod:`repro.serving.fleet`
(its docstring carries the failure model); this module contributes the
shard op table, the :class:`ShardHandle` reply checks, and the tier's
reactions.  A respawning slot rebuilds a fresh
:class:`~repro.db.sharding.ShardSpec` from the *live* catalog
(:func:`~repro.db.sharding.rebuild_shard_spec`).  When the breaker retires
a shard, the survivors re-slice to the smaller arity (rank order follows
shard-id order, so merged concatenation stays canonical); subsequent
batches scatter across the smaller fleet.

A note on per-request engine-cache deltas: outcomes served by this stage
attribute cache activity from the *execute phase only*.  Scattered queries
report 0/0 (their physical cache traffic lands in per-shard
``ShardStats`` windows), and fallback queries report the
``execute_planned`` window — the classification-stage plan lookup is a
batch cost, not a per-request one.  The local stage folds that plan
lookup into each request's delta, so the two deployments agree on
every equivalence-contract field but not on this observability counter.

Coherence: the service's engine invalidation hook reaches the stage as
``table_invalidated``; any catalog change on the router database —
`append_rows`, `create_index`, direct `Database` calls included — re-slices
the affected table and broadcasts a ``sync_table`` to every live worker,
which replaces its slice, rebuilds its indexes, and evicts derived cache
state.
"""

from __future__ import annotations

from typing import Sequence

from ..core.middleware import RequestOutcome
from ..db.caches import CacheStatsReport
from ..db.plans import PhysicalPlan
from ..db.sharding import (
    ShardBatchReply,
    ShardEngine,
    merge_scatter,
    rebuild_shard_spec,
    reslice_for_sync,
    scatter_eligible,
)
from ..errors import QueryError
from .faults import FaultPlan
from .fleet import SupervisedFleet, SupervisedSlot, WorkerHandle
from .service import ExecuteStage, LocalExecute, MalivaService, _PlannedBatch
from .stats import ShardStats


def shard_ops() -> dict:
    """The shard worker's op table: one shard engine."""
    engine: ShardEngine | None = None

    def init(spec) -> None:
        nonlocal engine
        engine = ShardEngine(spec)

    def sync(payload) -> None:
        table, indexed_columns = payload
        engine.sync_table(table, indexed_columns)

    return {
        "init": init,
        "execute": lambda plans: engine.execute(plans),
        "sync": sync,
        "cache_stats": lambda _: engine.cache_stats(),
    }


class ShardHandle(WorkerHandle):
    """Router-side handle of one shard worker: one method per op, each
    holding that op's payload shape check."""

    def __init__(self, fleet: SupervisedFleet, spec) -> None:
        self.shard_id = spec.shard_id
        super().__init__(fleet, spec.shard_id, shard_ops, spec)

    def submit_execute(self, plans: Sequence[PhysicalPlan]) -> None:
        self._channel.send("execute", list(plans))

    def collect(self, deadline_s: float | None = None, expected: int | None = None):
        reply = self._reply("execute", deadline_s, ShardBatchReply)
        self._check_count("execute", len(reply.reports), expected)
        return reply

    def sync_table(
        self, table, indexed_columns, deadline_s: float | None = None
    ) -> None:
        self._request("sync", (table, tuple(indexed_columns)), deadline_s)

    def cache_stats(self, deadline_s: float | None = None):
        return self._request("cache_stats", None, deadline_s, CacheStatsReport)


class ScatterExecute(ExecuteStage):
    """Scatter/gather execution over N supervised shard engines."""

    def __init__(
        self,
        *,
        n_shards: int = 2,
        processes: bool = True,
        rpc_deadline_ms: float | None = 10_000.0,
        deadline_tau_factor: float = 1.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be at least 1, got {n_shards}")
        self._fleet = SupervisedFleet(
            self._build_handle,
            n_shards,
            kind="shard",
            on_death=self._on_worker_death,
            processes=processes,
            fault_plan=fault_plan,
            rpc_deadline_ms=rpc_deadline_ms,
            deadline_tau_factor=deadline_tau_factor,
            max_respawns=max_respawns,
            respawn_backoff_s=respawn_backoff_s,
        )
        self._slots: list[SupervisedSlot] = self._fleet.slots
        self._closed = False
        self.n_shards = n_shards

    def bind(self, service: MalivaService) -> "ScatterExecute":
        super().bind(service)
        #: Quality-scored batches execute here, sequentially on the router.
        self._local = LocalExecute().bind(service)
        self._fleet.spawn()
        self.reset_stats()
        return self

    @property
    def _shard_stats(self) -> ShardStats | None:
        """This window's shard counters (``None`` until the fleet is up)."""
        return self.service.stats.shards

    def _build_handle(self, slot: SupervisedSlot) -> ShardHandle:
        """Warm-(re)spawn one slot from the live catalog, bit-coherent."""
        active = self._active_slots()
        spec = rebuild_shard_spec(
            self.service.maliva.database,
            slot.shard_id,
            active.index(slot),
            len(active),
        )
        return ShardHandle(self._fleet, spec)

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    def _active_slots(self) -> list[SupervisedSlot]:
        return self._fleet.active_slots()

    def reset_stats(self) -> None:
        self.service.stats.shards = ShardStats(n_shards=self.n_shards)

    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        self._closed = True
        self._fleet.close()

    def report(self) -> dict:
        if self._closed:
            return {}
        # A stats probe is a lifecycle op: the setup deadline, not a
        # request's (fleet.py's deadline classes).
        deadline_s = self._fleet.setup_deadline_s()
        return {
            "shard_caches": {
                str(slot.shard_id): stats.to_dict()
                for slot, stats in self._fleet.call_live(
                    lambda slot: slot.handle.cache_stats(deadline_s)
                )
            }
        }

    # ------------------------------------------------------------------
    # Supervision reactions: stats, rebalance on retirement
    # ------------------------------------------------------------------
    def _on_worker_death(self, slot: SupervisedSlot) -> None:
        if self._shard_stats is not None:
            self._shard_stats.record_death(slot.shard_id, slot.last_fault)

    def _ensure_workers(self) -> None:
        """Respawn/retire at the top of every execute stage — never
        mid-batch — then re-partition around any retirement."""
        respawned, retired = self._fleet.ensure()
        if self._shard_stats is not None:
            for slot in respawned:
                self._shard_stats.record_respawn(slot.shard_id)
            for slot in retired:
                self._shard_stats.record_retired(slot.shard_id)
        if retired:
            self._do_rebalance()

    def _sync_slices(self, table_name: str, deadline_s: float | None) -> bool:
        """Re-slice one table at the active arity and sync the live shards.

        Dead slots skip the sync: their respawn rebuilds from the live
        catalog at the current arity and cannot go stale.  Returns whether
        the sync reached at least one live worker.
        """
        database = self.service.maliva.database
        active = self._active_slots()
        slices = reslice_for_sync(database, table_name, len(active))
        fresh = {slot.shard_id: part for slot, part in zip(active, slices)}
        indexed = tuple(sorted(database.indexes_for(table_name)))
        delivered = self._fleet.call_live(
            lambda slot: slot.handle.sync_table(
                fresh[slot.shard_id], indexed, deadline_s
            )
        )
        return bool(delivered)

    def _do_rebalance(self) -> None:
        """Re-slice every table at the survivors' (smaller) arity after a
        breaker retirement — rank order follows shard-id order, so
        ``sorted(shard_id)`` concatenation of reports stays the canonical
        row order."""
        if self._closed:
            return
        if self._shard_stats is not None:
            self._shard_stats.n_rebalances += 1
        if not self._active_slots():
            # Whole fleet retired: every request recovers on the router.
            return
        database = self.service.maliva.database
        deadline_s = self._fleet.setup_deadline_s()
        for name in sorted(database.table_names):
            self._sync_slices(name, deadline_s)

    # ------------------------------------------------------------------
    # Cross-shard coherence
    # ------------------------------------------------------------------
    def table_invalidated(self, table_name: str) -> None:
        database = self.service.maliva.database
        if self._closed or not database.has_table(table_name):
            return
        synced = self._sync_slices(table_name, self._fleet.setup_deadline_s())
        if synced and self._shard_stats is not None:
            self._shard_stats.n_syncs += 1

    # ------------------------------------------------------------------
    # The scattered execute stage
    # ------------------------------------------------------------------
    def run(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        """Classify the batch, scatter it, and assemble the outcomes.

        Quality-scored batches execute on the local stage instead: scoring
        interleaves extra engine work per request.
        """
        if self._closed:
            raise QueryError("sharded service is closed")
        if self.service.quality_fn is not None:
            return self._local.run(planned)
        resolved = planned.resolved
        order = planned.order
        decisions = planned.decisions
        database = self.service.maliva.database
        shard_stats = self._shard_stats
        self._ensure_workers()

        active = self._active_slots()
        scatter_slots = [slot for slot in active if slot.handle is not None]
        # A scatter needs reports from *every* active slot (the partition's
        # arity); one dead survivor routes the whole scatter-eligible set
        # through router recovery instead.
        scatter_ready = bool(active) and len(scatter_slots) == len(active)
        # Recovery is then charged to the first slot blocking the scatter.
        blocking_shard = next(
            (s.shard_id for s in self._slots if s.retired or s.handle is None), 0
        )

        # Classify the scheduled batch.  begin_execution consumes the
        # hint-obey draw and the plan-cache sequence in scheduled order,
        # exactly as single-engine execution would — which is also what
        # makes recovered entries bit-identical: they re-execute below in
        # that same order, against the same consumed draws.
        jobs = []  # (index, query, tau, decision, plan, obeyed, was_planned)
        plans: list[PhysicalPlan] = []
        scatter_positions: dict[int, int] = {}  # index -> plan position
        n_fallback = 0  # structural router executions
        n_recovered = 0  # health-recovered router executions
        for index in order:
            query, tau = resolved[index]
            decision = decisions[index]
            rewritten = decision.rewritten  # type: ignore[union-attr]
            plan, obeyed, was_planned = database.begin_execution(rewritten)
            jobs.append((index, query, tau, decision, plan, obeyed, was_planned))
            if not obeyed or not scatter_eligible(plan):
                n_fallback += 1
            elif scatter_ready:
                scatter_positions[index] = len(plans)
                plans.append(plan)
            else:
                n_recovered += 1

        deadline_s = self._fleet.call_deadline_s(
            max((resolved[i][1] for i in order), default=None)
        )
        reports = self._scatter(plans, scatter_slots if plans else [], deadline_s)

        # Assemble outcomes in scheduled order.  A scattered plan is
        # shard-served only if *every* scatter shard reported it; anything
        # less — and every fallback or recovered request — executes on the
        # router, bit-identically.
        scatter_ids = [slot.shard_id for slot in scatter_slots]
        outcomes: list = [None] * len(jobs)
        mid_recovered: dict[int, int] = {}
        n_shard_served = 0
        for index, query, tau, decision, plan, obeyed, was_planned in jobs:
            position = scatter_positions.get(index)
            if position is not None and all(
                len(reports.get(sid, [])) > position for sid in scatter_ids
            ):
                counters, row_ids, bins = merge_scatter(
                    database,
                    plan,
                    [reports[sid][position] for sid in scatter_ids],
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
                    plan,
                    decision.rewritten,  # type: ignore[union-attr]
                    obeyed=obeyed,
                    was_planned=was_planned,
                )
                if position is not None:
                    victim = min(
                        scatter_ids, key=lambda sid: len(reports.get(sid, []))
                    )
                    mid_recovered[victim] = mid_recovered.get(victim, 0) + 1
            outcomes[index] = self.service.maliva.assemble_outcome(
                query, decision, tau, result
            )

        if shard_stats is not None:
            shard_stats.n_scattered += n_shard_served
            shard_stats.n_fallback += n_fallback
            if n_recovered:
                shard_stats.record_recovered(blocking_shard, n_recovered)
            for shard_id, count in mid_recovered.items():
                shard_stats.record_recovered(shard_id, count)

        return outcomes

    def _scatter(
        self,
        plans: list[PhysicalPlan],
        slots: list[SupervisedSlot],
        deadline_s: float | None,
    ) -> dict[int, list]:
        """Send every slot the same plan list, then collect the reports.

        Every submit goes out before any reply is collected, so the
        workers run concurrently.  A failed submit or collect marks its
        slot dead and the sweep continues — ``call_live`` drains every
        submitted shard even after one failed, since an uncollected reply
        would desync the pipe for the next batch — so the reports map
        (shard id → per-plan reports) may come back incomplete; the
        caller recovers what goes unreported.
        """
        submitted = [
            slot
            for slot, _ in self._fleet.call_live(
                lambda slot: slot.handle.submit_execute(plans), slots
            )
        ]
        reports: dict[int, list] = {}
        for slot, reply in self._fleet.call_live(
            lambda slot: slot.handle.collect(deadline_s, len(plans)), submitted
        ):
            reports[slot.shard_id] = reply.reports
            if self._shard_stats is not None:
                self._shard_stats.record_shard(slot.shard_id, reply)
        return reports
