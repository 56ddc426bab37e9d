"""Serving-side accounting: per-request records and aggregate reports.

The middleware's virtual clock measures what the *user* experiences (the
paper's VQP / AQRT metrics); the wall clock measures what the *middleware
host* spends producing those answers.  The serving layer's whole point is to
shrink the second without touching the first, so the report keeps both,
alongside the hit rates of every cache doing the shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..db.batch_executor import BatchSharingStats
from ..db.cost_model import WorkCounters


@dataclass
class ShardWindow:
    """Physical work one shard performed in the current stats window."""

    n_batches: int = 0
    n_queries: int = 0
    #: Worker-side wall seconds spent executing (excludes transport).
    wall_s: float = 0.0
    #: Physical work counters — what the shard's own slice-local indexes
    #: and scans actually did, *not* the canonical virtual accounting the
    #: merged results charge (DESIGN.md §4.3).
    counters: WorkCounters = field(default_factory=WorkCounters)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Times this shard's worker died (timeout/EOF/garbled/error reply).
    n_deaths: int = 0
    #: Successful warm respawns of this shard's worker.
    n_respawns: int = 0
    #: Whether the circuit breaker permanently retired this shard.
    breaker_open: bool = False
    #: Scattered entries re-executed on the router after this shard failed
    #: mid-batch (its partial reports for those entries are discarded).
    n_recovered: int = 0
    #: Why this shard's worker last died (the ``WorkerFault`` message).
    last_fault: str | None = None

    def to_dict(self) -> dict:
        return {
            "n_batches": self.n_batches,
            "n_queries": self.n_queries,
            "wall_s": self.wall_s,
            "total_ops": self.counters.total_ops(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "n_deaths": self.n_deaths,
            "n_respawns": self.n_respawns,
            "breaker_open": self.breaker_open,
            "n_recovered": self.n_recovered,
            "last_fault": self.last_fault,
        }


@dataclass
class ShardStats:
    """Scatter/gather accounting across all shards of a sharded service."""

    n_shards: int = 0
    per_shard: dict[int, ShardWindow] = field(default_factory=dict)
    #: Queries answered by scatter/gather across shard workers.
    n_scattered: int = 0
    #: Queries the router executed on the full engine (joins, ignored hints).
    n_fallback: int = 0
    #: Table re-slices broadcast to keep shard data/caches coherent (only
    #: those that reached at least one live worker).
    n_syncs: int = 0
    #: Worker deaths across the fleet (each triggers recovery, not failure).
    n_worker_deaths: int = 0
    #: Successful warm respawns across the fleet.
    n_respawns: int = 0
    #: Shards permanently retired by the flapping circuit breaker.
    n_retired: int = 0
    #: Scattered entries recovered on the router after a mid-batch death.
    n_recovered_entries: int = 0
    #: Fleet re-partitions after a breaker retirement.
    n_rebalances: int = 0

    def record_shard(self, shard_id: int, reply) -> None:
        """Fold one :class:`~repro.db.sharding.ShardBatchReply` in."""
        window = self.per_shard.setdefault(shard_id, ShardWindow())
        window.n_batches += 1
        window.n_queries += len(reply.reports)
        window.wall_s += reply.wall_s
        window.counters = window.counters + reply.physical_counters
        window.cache_hits += reply.cache_hits
        window.cache_misses += reply.cache_misses

    def record_death(self, shard_id: int, reason: str | None) -> None:
        self.n_worker_deaths += 1
        window = self.per_shard.setdefault(shard_id, ShardWindow())
        window.n_deaths += 1
        window.last_fault = reason

    def record_respawn(self, shard_id: int) -> None:
        self.n_respawns += 1
        self.per_shard.setdefault(shard_id, ShardWindow()).n_respawns += 1

    def record_retired(self, shard_id: int) -> None:
        self.n_retired += 1
        self.per_shard.setdefault(shard_id, ShardWindow()).breaker_open = True

    def record_recovered(self, shard_id: int, n_entries: int) -> None:
        self.n_recovered_entries += n_entries
        self.per_shard.setdefault(shard_id, ShardWindow()).n_recovered += n_entries

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "n_scattered": self.n_scattered,
            "n_fallback": self.n_fallback,
            "n_syncs": self.n_syncs,
            "n_worker_deaths": self.n_worker_deaths,
            "n_respawns": self.n_respawns,
            "n_retired": self.n_retired,
            "n_recovered_entries": self.n_recovered_entries,
            "n_rebalances": self.n_rebalances,
            # perfbench/driver.py still reads these three keys and the
            # per-shard ``plan_wall_s`` by name.  Shard workers no longer
            # plan or mirror, so they are constants; they leave with the
            # next benchmark PR.
            "n_plan_scattered": 0,
            "n_plan_fallback": 0,
            "n_mirrored_decisions": 0,
            "per_shard": {
                str(shard_id): {**window.to_dict(), "plan_wall_s": 0.0}
                for shard_id, window in sorted(self.per_shard.items())
            },
        }


@dataclass
class RouterWindow:
    """Work one router replica performed in the current stats window."""

    n_batches: int = 0
    #: Requests this replica served (dispatched sub-batches + replays).
    n_requests: int = 0
    #: Replica-side wall seconds spent serving (excludes transport).
    wall_s: float = 0.0
    #: Requests answered from the replica's decision cache.
    n_cached: int = 0
    #: Times this replica's process died (timeout/EOF/garbled/error reply).
    n_deaths: int = 0
    #: Successful warm respawns of this replica.
    n_respawns: int = 0
    #: Whether the circuit breaker permanently retired this replica.
    breaker_open: bool = False
    #: Journaled requests replayed on a survivor after this replica died.
    n_replayed: int = 0
    #: Why this replica last died (the ``WorkerFault`` message).
    last_fault: str | None = None

    def to_dict(self) -> dict:
        return {
            "n_batches": self.n_batches,
            "n_requests": self.n_requests,
            "wall_s": self.wall_s,
            "n_cached": self.n_cached,
            "n_deaths": self.n_deaths,
            "n_respawns": self.n_respawns,
            "breaker_open": self.breaker_open,
            "n_replayed": self.n_replayed,
            "last_fault": self.last_fault,
        }


@dataclass
class RouterStats:
    """Dispatch/failover accounting across a replicated router fleet."""

    n_routers: int = 0
    per_router: dict[int, RouterWindow] = field(default_factory=dict)
    #: Requests shipped to router replicas (journaled before dispatch).
    n_dispatched: int = 0
    #: Journaled, unacknowledged requests replayed on a survivor after a
    #: router death (the zero-lost-requests path).
    n_replayed: int = 0
    #: Requests served on the dispatcher itself (fleet empty / all retired).
    n_local: int = 0
    #: Router deaths across the fleet (each triggers replay, not failure).
    n_router_deaths: int = 0
    #: Successful warm respawns across the fleet.
    n_respawns: int = 0
    #: Routers permanently retired by the flapping circuit breaker.
    n_retired: int = 0
    #: Session reassignments after a death or breaker retirement.
    n_rebalances: int = 0
    #: Catalog syncs broadcast to keep replica engines coherent (only
    #: those that reached at least one live replica).
    n_syncs: int = 0
    #: Deepest the pre-dispatch journal ever got (unacknowledged entries).
    journal_high_water: int = 0

    def record_serve(
        self, router_id: int, n_requests: int, wall_s: float, n_cached: int = 0
    ) -> None:
        """Fold one router replica's serve reply in."""
        window = self.per_router.setdefault(router_id, RouterWindow())
        window.n_batches += 1
        window.n_requests += n_requests
        window.wall_s += wall_s
        window.n_cached += n_cached

    def record_death(self, router_id: int, reason: str | None) -> None:
        self.n_router_deaths += 1
        window = self.per_router.setdefault(router_id, RouterWindow())
        window.n_deaths += 1
        window.last_fault = reason

    def record_respawn(self, router_id: int) -> None:
        self.n_respawns += 1
        self.per_router.setdefault(router_id, RouterWindow()).n_respawns += 1

    def record_retired(self, router_id: int) -> None:
        self.n_retired += 1
        self.per_router.setdefault(router_id, RouterWindow()).breaker_open = True

    def record_replayed(self, router_id: int, n_requests: int) -> None:
        self.n_replayed += n_requests
        window = self.per_router.setdefault(router_id, RouterWindow())
        window.n_replayed += n_requests

    def record_journal_depth(self, depth: int) -> None:
        if depth > self.journal_high_water:
            self.journal_high_water = depth

    def to_dict(self) -> dict:
        return {
            "n_routers": self.n_routers,
            "n_dispatched": self.n_dispatched,
            "n_replayed": self.n_replayed,
            "n_local": self.n_local,
            "n_router_deaths": self.n_router_deaths,
            "n_respawns": self.n_respawns,
            "n_retired": self.n_retired,
            "n_rebalances": self.n_rebalances,
            "n_syncs": self.n_syncs,
            # perfbench/driver.py still reads these two keys by name.
            # Replicas share no decisions, so they are constants; they go
            # when perfbench stops reading them, like the shard ones.
            "n_gossip_broadcast": 0,
            "n_gossip_hits": 0,
            "journal_high_water": self.journal_high_water,
            "per_router": {
                str(router_id): window.to_dict()
                for router_id, window in sorted(self.per_router.items())
            },
        }


@dataclass(frozen=True)
class RequestRecord:
    """One served request, reduced to what throughput reports need."""

    request_id: int | str | None
    session_id: str | None
    tau_ms: float
    planning_ms: float
    execution_ms: float
    viable: bool
    #: Wall-clock seconds the service spent producing the answer.
    wall_s: float
    #: Engine-cache hits/misses while executing (cross-request reuse).
    cache_hits: int
    cache_misses: int
    #: Whether the rewrite decision came from the service's decision cache.
    decision_cached: bool

    @property
    def total_ms(self) -> float:
        return self.planning_ms + self.execution_ms


@dataclass
class ServiceStats:
    """Aggregate statistics over every request a service answered."""

    records: list[RequestRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Wall-clock seconds per pipeline stage (resolve/schedule/plan/execute).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Aggregated execute-stage sharing across every batched execution.
    execute_sharing: BatchSharingStats = field(default_factory=BatchSharingStats)
    #: How many batched execute calls contributed to ``execute_sharing``.
    n_execute_batches: int = 0
    #: Scatter/gather accounting (sharded services only; None otherwise).
    shards: ShardStats | None = None
    #: Dispatch/failover accounting (replicated services only; None
    #: otherwise).  Like every other field here, the window is replaced
    #: wholesale by ``reset_stats()``.
    routers: RouterStats | None = None
    #: Requests refused by admission control (ServiceOverloadError).
    n_shed: int = 0
    #: Requests admitted with an overload-degraded ``tau_ms``.
    n_tau_degraded: int = 0
    #: Peak depth of the async tier's bounded session queues.
    queue_peak_depth: int = 0
    #: ``submit()`` calls that had to wait for queue space (backpressure).
    n_backpressure_waits: int = 0

    def record_shed(self) -> None:
        self.n_shed += 1

    def record_queue_depth(self, depth: int) -> None:
        """Track the async tier's peak bounded-queue depth."""
        if depth > self.queue_peak_depth:
            self.queue_peak_depth = depth

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)
        self.wall_seconds += record.wall_s

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall time into one pipeline stage's counter."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def record_sharing(self, sharing: BatchSharingStats) -> None:
        """Fold one batch's execute-stage sharing stats into the report."""
        self.execute_sharing.merge(sharing)
        self.n_execute_batches += 1

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def n_viable(self) -> int:
        return sum(1 for r in self.records if r.viable)

    @property
    def vqp(self) -> float:
        """Fraction of requests answered within their budget (paper's VQP)."""
        return self.n_viable / self.n_requests if self.records else 0.0

    @property
    def throughput_qps(self) -> float:
        """Wall-clock requests per second over everything served so far."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_requests / self.wall_seconds

    @property
    def decision_cache_hits(self) -> int:
        return sum(1 for r in self.records if r.decision_cached)

    def latency_ms(self, percentile: float = 50.0) -> float:
        """Virtual response-time percentile (planning + execution)."""
        if not self.records:
            return 0.0
        totals = np.array([r.total_ms for r in self.records])
        return float(np.percentile(totals, percentile))

    @property
    def mean_latency_ms(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.total_ms for r in self.records]))

    def session_breakdown(self) -> dict[str | None, int]:
        """Requests served per session id (None groups the sessionless)."""
        counts: dict[str | None, int] = {}
        for record in self.records:
            counts[record.session_id] = counts.get(record.session_id, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_viable": self.n_viable,
            "vqp": self.vqp,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "mean_latency_ms": self.mean_latency_ms,
            "p50_latency_ms": self.latency_ms(50.0),
            "p95_latency_ms": self.latency_ms(95.0),
            "decision_cache_hits": self.decision_cache_hits,
            "n_shed": self.n_shed,
            "n_tau_degraded": self.n_tau_degraded,
            # perfbench/driver.py still reads these two keys by name.  The
            # async tier runs one micro-batch at a time, so nothing overlaps
            # and they are constants; they go with the shard and router ones.
            "n_overlapped_batches": 0,
            "overlap_plan_s": 0.0,
            "queue_peak_depth": self.queue_peak_depth,
            "n_backpressure_waits": self.n_backpressure_waits,
            "stage_seconds": dict(self.stage_seconds),
            "execute_sharing": {
                **self.execute_sharing.to_dict(),
                "n_batches": self.n_execute_batches,
            },
            **({"shards": self.shards.to_dict()} if self.shards is not None else {}),
            **(
                {"routers": self.routers.to_dict()}
                if self.routers is not None
                else {}
            ),
        }
