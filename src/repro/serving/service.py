"""The request-serving middleware: many users, one engine, shared caches.

:class:`MalivaService` wraps a trained :class:`~repro.core.middleware.
Maliva` facade and turns it from a one-shot answerer into a serving layer:

* **batches and streams** — :meth:`answer_many` / :meth:`answer_stream`
  accept :class:`~repro.serving.requests.VizRequest` envelopes carrying
  per-request deadlines and session ids;
* **staged pipeline** — a batch flows through resolve → schedule → plan →
  execute stages; decision-cache hits skip the plan stage entirely, and
  the misses are planned together in one lockstep
  :meth:`~repro.core.middleware.Maliva.rewrite_batch` call (bit-identical
  to per-request planning, one q-network pass per MDP depth for the whole
  batch).  Streams drain through the same pipeline in micro-batches of
  ``stream_batch_size``;
* **the execute stage is an object** — :class:`MalivaService` is the only
  service class.  What turns a planned micro-batch into outcomes is the
  :class:`ExecuteStage` passed as ``execute=``: :class:`LocalExecute`
  (the default; the engine's :class:`~repro.db.batch_executor.
  BatchExecutor`, which computes each distinct index probe, predicate row
  set, scan pipeline, and BIN_ID histogram once per batch while keeping
  every request's results, work counters, and virtual times bit-identical
  to sequential execution), or the backend / scatter / dispatch stages in
  their own modules.  The service keeps the one loop that records
  requests and times the stage (DESIGN.md §4.3);
* **session-affinity scheduling** — batches are reordered so same-session
  requests run back-to-back and hit the engine's cross-request caches;
* **decision caching** — the MDP planning loop is deterministic given the
  database state (fixed q-network, memoized QTE inputs), so repeated
  (query, deadline) pairs reuse the recorded
  :class:`~repro.core.rewriter.RewriteDecision` — including its virtual
  ``planning_ms``, which the user still experiences in full.  The cache
  belongs to this service alone: router replicas each keep their own and
  replan what they have not seen (DESIGN.md §4.7);
* **observability** — :meth:`report` bundles wall-clock throughput, virtual
  latency percentiles, and the hit rates of every cache in the stack.

Virtual time is never shortcut: a warm cache makes the middleware *host*
faster (queries/sec), while each user's reported response time stays
exactly what a cold sequential :meth:`Maliva.answer` would report — the
identity ``tests/serving/test_service.py`` pins down.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Iterator, Sequence

from ..core.middleware import Maliva, RequestOutcome
from ..db import SelectQuery
from ..db.caches import CacheStatsReport, InstrumentedCache
from ..errors import QueryError, ServiceOverloadError
from ..viz.quality import QualityFunction
from ..viz.requests import RequestTranslator, VisualizationRequest
from .admission import AdmissionController
from .requests import VizRequest
from .scheduler import SessionAffinityScheduler
from .stats import RequestRecord, ServiceStats


@dataclasses.dataclass
class _PlannedBatch:
    """One micro-batch captured at the end of the plan stage: everything
    an :class:`ExecuteStage` needs to run it."""

    requests: list[VizRequest]
    resolved: list[tuple[SelectQuery, float]]
    order: list[int]
    decisions: list[object | None]
    cached_flags: list[bool]
    shared_s: float


class ExecuteStage:
    """Turns a planned micro-batch into outcomes: the one thing that
    differs between serving on the local engine, a real backend, a shard
    fleet and a router fleet.

    :class:`MalivaService` owns everything around it — resolve, schedule,
    plan, admission, the per-request records and the stage timer — and
    calls exactly these hooks.  The defaults are the no-remote-workers
    behaviour, so a stage overrides only what it has.
    """

    service: "MalivaService"

    def bind(self, service: "MalivaService") -> "ExecuteStage":
        """Attach to the service being constructed (spawn workers here)."""
        self.service = service
        return self

    def wants_decisions(self) -> bool:
        """Asked once per micro-batch, before planning: should the service
        plan it?  Only a dispatcher with a live replica (which plans
        itself) says no."""
        return True

    def run(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        """Execute the batch; outcomes in *submission* order.  A stage
        that did not let the service plan also fills
        ``planned.cached_flags``."""
        raise NotImplementedError

    def table_invalidated(self, table_name: str) -> None:
        """The engine's catalog changed under ``table_name``."""

    def report(self) -> dict:
        """Extra top-level sections of :meth:`MalivaService.report`."""
        return {}

    def reset_stats(self) -> None:
        """A fresh measurement window began (``service.stats`` is new)."""

    def close(self) -> None:
        """Release what :meth:`bind` acquired (idempotent)."""


class LocalExecute(ExecuteStage):
    """The in-process engine: one :class:`~repro.db.batch_executor.
    BatchExecutor` pass over the scheduled order, sharing scans, probes and
    bin sweeps while staying bit-identical to sequential execution.

    Quality-scored serving executes sequentially instead: evaluating
    quality interleaves extra engine work per request, which batching
    would reorder.
    """

    def run(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        service = self.service
        order = planned.order
        queries = [planned.resolved[index][0] for index in order]
        decisions = [planned.decisions[index] for index in order]
        taus = [planned.resolved[index][1] for index in order]
        if service.quality_fn is not None:
            finished = [
                service.maliva.finish(query, decision, tau_ms, service.quality_fn)
                for query, decision, tau_ms in zip(queries, decisions, taus)
            ]
        else:
            finished, sharing = service.maliva.finish_batch(queries, decisions, taus)
            service.stats.record_sharing(sharing)
        outcomes: list = [None] * len(order)
        for index, outcome in zip(order, finished):
            outcomes[index] = outcome
        return outcomes


class MalivaService:
    """Concurrent-dashboard serving layer over a trained Maliva middleware."""

    def __init__(
        self,
        maliva: Maliva,
        translator: RequestTranslator | None = None,
        default_tau_ms: float | None = None,
        scheduler: SessionAffinityScheduler | None = None,
        decision_cache_size: int = 4096,
        quality_fn: QualityFunction | None = None,
        stream_batch_size: int = 8,
        admission: AdmissionController | None = None,
        execute: ExecuteStage | None = None,
    ) -> None:
        if stream_batch_size < 1:
            raise QueryError("stream_batch_size must be at least 1")
        self.maliva = maliva
        #: Optional overload policy: degrade deadlines, then shed requests
        #: (see :mod:`repro.serving.admission`).  None admits everything.
        self.admission = admission
        self._last_shed: list[tuple[VizRequest, ServiceOverloadError]] = []
        #: Chunk positions of the shed requests in ``_last_shed``; lets
        #: stream pairing realign admitted outcomes by index even when the
        #: same request object appears twice in one chunk.
        self._shed_indexes: list[int] = []
        self.translator = translator
        self.default_tau_ms = default_tau_ms if default_tau_ms is not None else maliva.tau_ms
        self.scheduler = scheduler or SessionAffinityScheduler()
        self.quality_fn = quality_fn
        self.stream_batch_size = stream_batch_size
        self._decision_cache = InstrumentedCache("decision", capacity=decision_cache_size)
        self.stats = ServiceStats()
        # Engine caches are shared with offline work (training warmed them);
        # reports cover only the window since construction / reset_stats().
        self._engine_baseline = maliva.database.cache_stats()
        #: Where planned micro-batches become outcomes (default: the local
        #: engine).  Bound once everything above exists: a fleet stage
        #: spawns its workers from the constructed service.
        self.execute = (execute or LocalExecute()).bind(self)
        # Stay coherent under direct Database.append_rows/invalidate_table
        # calls, not just mutations routed through this service.
        maliva.database.add_invalidation_hook(self._on_table_invalidated)

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def resolve(self, request: VizRequest) -> tuple[SelectQuery, float]:
        """Translate the payload and resolve the effective deadline."""
        payload = request.payload
        if isinstance(payload, SelectQuery):
            query = payload
        elif isinstance(payload, VisualizationRequest):
            if self.translator is None:
                raise QueryError(
                    "service has no RequestTranslator; submit SelectQuery "
                    "payloads or construct MalivaService(translator=...)"
                )
            query = self.translator.to_query(payload)
        else:
            raise QueryError(f"unsupported request payload {type(payload).__name__}")
        return query, request.effective_tau(self.default_tau_ms)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def answer_one(self, request: VizRequest) -> RequestOutcome:
        """Serve a single request: a one-element pipeline batch.

        Raises :class:`~repro.errors.ServiceOverloadError` if admission
        control shed the request.
        """
        outcomes = self.answer_many([request])
        if not outcomes:
            _, error = self._last_shed[-1]
            raise error
        return outcomes[0]

    def answer_many(self, requests: Sequence[VizRequest]) -> list[RequestOutcome]:
        """Serve a batch through the staged pipeline; outcomes are returned
        in *submission* order.

        With an :class:`~repro.serving.admission.AdmissionController`
        attached, each request is admitted (possibly with an
        overload-degraded ``tau_ms``) or shed before the pipeline runs;
        shed requests are *dropped from the returned list* and recorded —
        with their structured :class:`~repro.errors.ServiceOverloadError`
        — in :attr:`last_shed` for the caller.  Reserved virtual cost is
        released when the batch finishes, and every outcome's virtual
        total feeds the controller's cost estimate.

        Stages: **resolve** every payload, **schedule** the batch into the
        scheduler's session-affinity order, **plan** — decision-cache hits
        skip this stage, the misses (deduplicated on ``(query, tau)``) are
        planned together in one lockstep ``rewrite_batch`` call — and
        **execute** in the scheduled order so cache locality follows each
        user's exploration trajectory.  Per-request virtual times are
        identical to per-request :meth:`answer_one` calls; only the
        middleware host gets faster.
        """
        self._last_shed = []
        self._shed_indexes = []
        if not requests:
            return []
        if self.admission is None:
            return self._pipeline(list(requests))
        admitted, charges, degraded = self._admit_batch(requests)
        try:
            outcomes = self._pipeline(admitted) if admitted else []
        finally:
            for cost in charges:
                self.admission.release(cost)
        for outcome, was_degraded in zip(outcomes, degraded):
            self.admission.observe(
                outcome.planning_ms + outcome.execution_ms, degraded=was_degraded
            )
        return outcomes

    def _admit_batch(
        self, requests: Sequence[VizRequest]
    ) -> tuple[list[VizRequest], list[float], list[bool]]:
        """Run admission over one batch, recording sheds *positionally*.

        Returns the admitted requests (deadline-degraded where the verdict
        says so), their reserved virtual charges, and a per-admitted flag
        marking degraded admissions — so their outcomes feed the
        controller's segregated degraded EWMA instead of biasing the
        healthy cost estimate.  Shed requests land in ``_last_shed`` with
        their batch position in ``_shed_indexes``; the caller clears both
        before admission starts.
        """
        assert self.admission is not None
        admitted: list[VizRequest] = []
        charges: list[float] = []
        degraded: list[bool] = []
        for position, request in enumerate(requests):
            tau_ms = request.effective_tau(self.default_tau_ms)
            verdict = self.admission.admit(tau_ms)
            if not verdict.admitted:
                error = ServiceOverloadError(
                    f"request shed under overload: queued+in-flight virtual "
                    f"load {self.admission.load_ms:.1f}ms exceeds watermark "
                    f"{self.admission.effective_watermark_ms:.1f}ms",
                    retry_after_ms=verdict.retry_after_ms or 0.0,
                    load_ms=self.admission.load_ms,
                    watermark_ms=self.admission.effective_watermark_ms,
                )
                self._last_shed.append((request, error))
                self._shed_indexes.append(position)
                self.stats.record_shed()
                continue
            charges.append(verdict.cost_ms)
            degraded.append(verdict.degraded)
            if verdict.degraded:
                self.stats.n_tau_degraded += 1
                request = dataclasses.replace(request, tau_ms=verdict.tau_ms)
            admitted.append(request)
        return admitted, charges, degraded

    @property
    def last_shed(self) -> list[tuple[VizRequest, ServiceOverloadError]]:
        """Requests shed from the most recent batch, with their errors.

        **Batch-scoped lifetime**: the list is rebuilt at the start of
        every :meth:`answer_many` call and cleared by :meth:`reset_stats`;
        it never accumulates across batches or measurement windows.
        """
        return list(self._last_shed)

    def _pipeline(self, requests: Sequence[VizRequest]) -> list[RequestOutcome]:
        """The staged resolve → schedule → plan → execute pipeline."""
        planned = self._plan_batch(requests)
        return [] if planned is None else self._execute(planned)

    def _plan_batch(self, requests: Sequence[VizRequest]) -> _PlannedBatch | None:
        """Run the resolve → schedule → plan stages for one micro-batch and
        return everything the execute stage needs."""
        if not requests:
            return None
        plan_here = self.execute.wants_decisions()
        batch_started = time.perf_counter()
        resolved = [self.resolve(request) for request in requests]
        resolved_at = time.perf_counter()

        order = self.scheduler.order(requests)
        if sorted(order) != list(range(len(requests))):
            raise QueryError("scheduler must produce a permutation of the batch")
        scheduled_at = time.perf_counter()

        if plan_here:
            decisions, cached_flags = self._plan_stage(resolved)
        else:
            decisions, cached_flags = [None] * len(resolved), [False] * len(resolved)
        planned_at = time.perf_counter()

        # Shared pipeline time is charged evenly across the batch.
        shared_s = (planned_at - batch_started) / len(requests)
        self.stats.record_stage("resolve", resolved_at - batch_started)
        self.stats.record_stage("schedule", scheduled_at - resolved_at)
        self.stats.record_stage("plan", planned_at - scheduled_at)
        return _PlannedBatch(
            requests=list(requests),
            resolved=resolved,
            order=order,
            decisions=decisions,
            cached_flags=cached_flags,
            shared_s=shared_s,
        )

    def _execute(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        """Run the execute stage; record every request and time the stage.

        The only place requests are recorded and the execute stage is
        timed, whatever the stage.  The stage's wall time is charged
        evenly across the batch: attribution inside a fused, scattered or
        dispatched batch is meaningless, and ``wall_s`` is only ever
        summed (``ServiceStats.wall_seconds``).
        """
        started = time.perf_counter()
        outcomes = self.execute.run(planned)
        wall_s = (time.perf_counter() - started) / len(outcomes) + planned.shared_s
        for index in planned.order:
            request, outcome = planned.requests[index], outcomes[index]
            self.stats.record(
                RequestRecord(
                    request_id=request.request_id,
                    session_id=request.effective_session(),
                    tau_ms=planned.resolved[index][1],
                    planning_ms=outcome.planning_ms,
                    execution_ms=outcome.execution_ms,
                    viable=outcome.viable,
                    wall_s=wall_s,
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses,
                    decision_cached=planned.cached_flags[index],
                )
            )
        self.stats.record_stage("execute", time.perf_counter() - started)
        return outcomes

    def _plan_stage(
        self,
        resolved: list[tuple[SelectQuery, float]],
    ) -> tuple[list[object | None], list[bool]]:
        """Plan the resolved batch: cache lookups, then lockstep rewrites.

        Decision-cache hits skip planning; misses are deduplicated on
        ``(query key, tau)`` and their group leaders planned together via
        :meth:`_rewrite_misses`.  Cache bookkeeping stays here so the
        planner only ever sees the deduplicated miss leaders.
        """
        decisions: list[object | None] = [None] * len(resolved)
        cached_flags = [False] * len(resolved)
        misses: dict[tuple, list[int]] = {}
        for index, (query, tau_ms) in enumerate(resolved):
            key = (query.key(), tau_ms)
            decision = self._decision_cache.get(key)
            if decision is not None:
                decisions[index] = decision
                cached_flags[index] = True
            else:
                misses.setdefault(key, []).append(index)
        if misses:
            groups = list(misses.values())
            planned = self._rewrite_misses(
                [resolved[group[0]][0] for group in groups],
                [resolved[group[0]][1] for group in groups],
            )
            for group, decision in zip(groups, planned):
                query, tau_ms = resolved[group[0]]
                key = (query.key(), tau_ms)
                self._decision_cache.put(
                    key, decision, tags=self._decision_tags(query)
                )
                for index in group:
                    decisions[index] = decision
                    # Later duplicates would have been cache hits sequentially.
                    cached_flags[index] = index != group[0]
        return decisions, cached_flags

    def _rewrite_misses(
        self, queries: list[SelectQuery], taus: list[float]
    ) -> list[object]:
        """Plan the deduplicated decision-cache misses."""
        return self.maliva.rewrite_batch(queries, taus)

    def answer_stream(
        self,
        requests: Iterable[VizRequest],
        stream_batch_size: int | None = None,
        *,
        shed_markers: bool = False,
    ) -> Iterator[tuple[VizRequest, RequestOutcome | ServiceOverloadError]]:
        """Serve an open-ended stream in arrival order, chunk-wise lazily.

        Requests are drained through the :meth:`answer_many` pipeline in
        micro-batches of ``stream_batch_size`` (service default unless
        overridden), so streamed traffic gets the same session-affinity
        scheduling, lockstep planning, and decision-cache reuse as batches.
        Results for a chunk are yielded, in arrival order, as soon as the
        chunk completes; a chunk size of 1 reproduces fully lazy serving.

        **Pairing contract.**  ``answer_many`` returns outcomes only for
        *admitted* requests, so when admission sheds mid-chunk the pairing
        is realigned positionally: every yielded ``(request, outcome)``
        pair refers to that exact request — a shed never shifts later
        requests onto the wrong outcome.  Shed requests are skipped by
        default; with ``shed_markers=True`` they are yielded as
        ``(request, ServiceOverloadError)`` pairs instead, preserving
        arrival order for consumers that account for every submission.
        """
        size = self.stream_batch_size if stream_batch_size is None else stream_batch_size
        if size < 1:
            raise QueryError("stream_batch_size must be at least 1")
        chunk: list[VizRequest] = []
        for request in requests:
            chunk.append(request)
            if len(chunk) >= size:
                yield from self._stream_chunk(chunk, shed_markers)
                chunk = []
        if chunk:
            yield from self._stream_chunk(chunk, shed_markers)

    def _stream_chunk(
        self, chunk: Sequence[VizRequest], shed_markers: bool
    ) -> Iterator[tuple[VizRequest, RequestOutcome | ServiceOverloadError]]:
        """Pair one chunk's outcomes with its requests by *position*.

        Positions rather than object identity: a stream may legitimately
        submit the same ``VizRequest`` object twice within one chunk.
        """
        outcomes = self.answer_many(chunk)
        if not self._shed_indexes:
            # Fast path: nothing shed, outcomes align 1:1 with the chunk.
            yield from zip(chunk, outcomes)
            return
        shed_at = {
            position: error
            for position, (_, error) in zip(self._shed_indexes, self._last_shed)
        }
        results = iter(outcomes)
        for position, request in enumerate(chunk):
            error = shed_at.get(position)
            if error is not None:
                if shed_markers:
                    yield request, error
                continue
            yield request, next(results)

    # ------------------------------------------------------------------
    # Mutation and observability
    # ------------------------------------------------------------------
    def append_rows(self, table_name: str, columns) -> None:
        """Mutate a table; dependent layers invalidate via the engine hook."""
        self.maliva.database.append_rows(table_name, columns)

    def _on_table_invalidated(self, table_name: str) -> None:
        """Engine hook: evict the table's cached decisions by tag.

        QTE memos self-invalidate through their own hook (see
        :class:`repro.qte.sampling.SamplingQTE`).
        """
        self._decision_cache.invalidate_tag(table_name)
        self.execute.table_invalidated(table_name)

    def invalidate(self) -> None:
        """Manually drop the decision cache and the QTE's memos entirely."""
        self._decision_cache.clear()
        self.maliva.qte.invalidate()

    def reset_stats(self) -> None:
        """Start a fresh measurement window (request stats + engine baseline).

        Also clears :attr:`last_shed`: shed records are batch-scoped
        diagnostics, and letting them outlive the window they were shed in
        would let :meth:`answer_one` (or any ``last_shed`` reader) surface
        a stale :class:`~repro.errors.ServiceOverloadError` from traffic
        that predates the reset.

        The stats object is replaced *wholesale*, so every window counter —
        including the async tier's ``queue_peak_depth`` and
        ``n_backpressure_waits`` — restarts at zero; nothing survives into
        the next window (pinned by the reset regression tests).
        """
        self.stats = ServiceStats()
        self._engine_baseline = self.maliva.database.cache_stats()
        self._last_shed = []
        self._shed_indexes = []
        self.execute.reset_stats()

    def close(self) -> None:
        """Release the execute stage's resources (workers, an owned backend)."""
        self.execute.close()

    def __enter__(self) -> "MalivaService":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def _decision_tags(self, query: SelectQuery) -> list[str]:
        tags = [query.table]
        if query.join is not None:
            tags.append(query.join.table)
        return tags

    @property
    def decision_cache_stats(self):
        return self._decision_cache.stats.snapshot()

    def engine_cache_window(self) -> CacheStatsReport:
        """Engine-cache counters accumulated in the current window only."""
        baseline = {stats.name: stats for stats in self._engine_baseline.caches}
        return CacheStatsReport(
            caches=tuple(
                stats.delta(baseline[stats.name]) if stats.name in baseline else stats
                for stats in self.maliva.database.cache_stats().caches
            )
        )

    def report(self) -> dict:
        """Aggregate serving report: throughput, latency, cache hit rates.

        Engine-cache numbers cover the current measurement window (since
        construction or :meth:`reset_stats`), so offline traffic such as
        training does not pollute serving hit rates.  ``engine_maintenance``
        counts the engine's mutation upkeep (rows appended, texts
        tokenized, indexes extended / rebuilt) since the database was
        created.
        """
        engine = self.engine_cache_window()
        return {
            "service": self.stats.to_dict(),
            "decision_cache": self._decision_cache.stats.to_dict(),
            "rq_build_cache": self.maliva.rewriter.build_cache_stats.to_dict(),
            "engine_caches": engine.to_dict(),
            "engine_hit_rate": engine.hit_rate,
            "engine_maintenance": self.maliva.database.maintenance.to_dict(),
            "qte_caches": {s.name: s.to_dict() for s in self.maliva.qte.cache_stats()},
            **(
                {"admission": self.admission.snapshot()}
                if self.admission is not None
                else {}
            ),
            **self.execute.report(),
        }
