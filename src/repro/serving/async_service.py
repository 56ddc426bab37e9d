"""The async pipelined serving tier: plan chunk N+1 while chunk N executes.

:class:`AsyncMalivaService` is a cooperative (single-threaded asyncio)
facade over a :class:`~repro.serving.service.MalivaService`, whatever
execute stage it runs.  It adds two things the synchronous tier cannot
express, without changing a single outcome:

* **plan/execute overlap.**  The staged pipeline's seams
  (``_plan_batch`` / ``_execute_begin`` / ``_execute_wait`` /
  ``_execute_finish``, the last three forwarding to the stage's
  ``begin`` / ``wait`` / ``finish``) let the resolve/schedule/plan stages
  of micro-batch N+1 run while batch N's execute stage is in flight.  A
  fleet stage's ``begin`` submits the batch, so worker *processes* crunch
  while the router plans; the local and backend stages do their work
  inside ``finish`` — after the next batch's plan — which is a pure
  deterministic reorder.  Either way the reorder is
  outcome-commutative: planning consumes no engine randomness (the hint
  draw and profile effects happen in the execute stage), so decisions,
  virtual times, rows/bins, and work counters are **bit-identical** to
  the synchronous path.  Only observability can shift: ``plan_cached``
  flags and per-request engine-cache deltas depend on cache warmth order,
  exactly as documented for the scatter stage.

* **bounded session queues with backpressure.**  :meth:`submit` enqueues
  one request on its session's queue and returns an awaitable outcome; a
  session past ``session_queue_limit`` waits (backpressure) instead of
  growing without bound.  Each queued request charges its *estimated*
  virtual cost to the :class:`~repro.serving.admission.
  AdmissionController` via ``enqueue``/``dequeue``, so shed and degrade
  verdicts see the backlog — queued plus in-flight work — not just the
  work already dispatched.  The batcher drains the queues *fairly*:
  micro-batches assemble round-robin across waiting sessions (see
  :meth:`AsyncMalivaService._take_fair_chunk`), so one bursty session
  cannot starve a light session's requests behind its backlog.  Because
  admission observes queue pressure the
  synchronous tier never generates, verdicts under load legitimately
  differ from a synchronous replay; the bit-identity contract is defined
  over admission-off (or identically-admitted) traffic.

**Stream pairing contract.**  :meth:`answer_stream` yields
``(request, outcome)`` pairs aligned positionally over admitted requests
— a shed mid-chunk never shifts later requests onto the wrong outcome —
and with ``shed_markers=True`` shed requests surface in arrival order as
``(request, ServiceOverloadError)`` pairs (the same contract as the
synchronous ``MalivaService.answer_stream``).

The facade does not own the wrapped service: :meth:`close` quiesces the
batcher task but leaves the service (and its stage's fleet) running for
the owner to close.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from typing import AsyncIterator, Iterable, Sequence

from ..core.middleware import RequestOutcome
from ..errors import QueryError, ServiceOverloadError
from .requests import VizRequest
from .service import MalivaService


class _QueuedRequest:
    """One submitted request parked on its session queue."""

    __slots__ = ("request", "future", "session", "cost_ms")

    def __init__(
        self,
        request: VizRequest,
        future: asyncio.Future,
        session: str,
        cost_ms: float,
    ) -> None:
        self.request = request
        self.future = future
        self.session = session
        self.cost_ms = cost_ms


async def _chunked(
    requests, size: int
) -> AsyncIterator[list[VizRequest]]:
    """Chunk a sync or async request iterable into micro-batches."""
    chunk: list[VizRequest] = []
    if hasattr(requests, "__aiter__"):
        async for request in requests:
            chunk.append(request)
            if len(chunk) >= size:
                yield chunk
                chunk = []
    else:
        for request in requests:
            chunk.append(request)
            if len(chunk) >= size:
                yield chunk
                chunk = []
    if chunk:
        yield chunk


class AsyncMalivaService:
    """Pipelined async facade over a MalivaService (any execute stage)."""

    def __init__(
        self,
        service: MalivaService,
        *,
        session_queue_limit: int = 32,
    ) -> None:
        if session_queue_limit < 1:
            raise QueryError("session_queue_limit must be at least 1")
        self._service = service
        #: Per-session bound on queued (not yet admitted) requests;
        #: :meth:`submit` applies backpressure past it.
        self.session_queue_limit = session_queue_limit
        # asyncio primitives are loop-agnostic at construction (3.10+),
        # so the facade can be built outside a running loop.
        self._pipeline_lock = asyncio.Lock()
        self._arrivals: deque[_QueuedRequest] = deque()
        self._arrival_event = asyncio.Event()
        self._session_depth: dict[str, int] = {}
        self._space_events: dict[str, asyncio.Event] = {}
        self._batcher: asyncio.Task | None = None
        self._closed = False
        self._unresolved = 0

    # ------------------------------------------------------------------
    # Pass-throughs
    # ------------------------------------------------------------------
    @property
    def service(self) -> MalivaService:
        return self._service

    @property
    def stats(self):
        return self._service.stats

    @property
    def admission(self):
        return self._service.admission

    @property
    def stream_batch_size(self) -> int:
        return self._service.stream_batch_size

    @property
    def last_shed(self):
        return self._service.last_shed

    def report(self) -> dict:
        return self._service.report()

    def reset_stats(self) -> None:
        self._service.reset_stats()

    # ------------------------------------------------------------------
    # The pipelined core
    # ------------------------------------------------------------------
    def _admit(self, chunk: Sequence[VizRequest]):
        """Admission for one chunk; returns (admitted, charges, degraded,
        shed-position → error)."""
        service = self._service
        service._last_shed = []
        service._shed_indexes = []
        if service.admission is None:
            return list(chunk), [], [], {}
        admitted, charges, degraded = service._admit_batch(chunk)
        shed_at = {
            position: error
            for position, (_, error) in zip(
                service._shed_indexes, service._last_shed
            )
        }
        return admitted, charges, degraded, shed_at

    async def _finish(self, chunk, shed_at, planned, charges, degraded):
        """Await and collect one in-flight batch; settle its admission."""
        service = self._service
        await service._execute_wait(planned)
        try:
            outcomes = service._execute_finish(planned)
        finally:
            if service.admission is not None:
                for cost in charges:
                    service.admission.release(cost)
        if service.admission is not None:
            for outcome, was_degraded in zip(outcomes, degraded):
                service.admission.observe(
                    outcome.planning_ms + outcome.execution_ms,
                    degraded=was_degraded,
                )
        return chunk, outcomes, shed_at

    async def _pipelined(self, chunks: AsyncIterator[list[VizRequest]]):
        """Admit → plan each chunk, overlapped with the previous chunk's
        execute stage; yields ``(chunk, outcomes, shed_at)`` per chunk."""
        service = self._service
        inflight = None
        try:
            async for chunk in chunks:
                admitted, charges, degraded, shed_at = self._admit(chunk)
                plan_started = time.perf_counter()
                planned = service._plan_batch(admitted)
                overlap_s = time.perf_counter() - plan_started
                if inflight is not None:
                    # This chunk's resolve/schedule/plan ran while the
                    # previous chunk's execute stage was in flight.
                    service.stats.record_overlap(overlap_s)
                    finished, inflight = inflight, None
                    yield await self._finish(*finished)
                if planned is None:
                    # Every request in the chunk was shed (or it was empty).
                    yield chunk, [], shed_at
                    continue
                service._execute_begin(planned)
                inflight = (chunk, shed_at, planned, charges, degraded)
            if inflight is not None:
                finished, inflight = inflight, None
                yield await self._finish(*finished)
        finally:
            if inflight is not None:
                # Consumer abandoned the stream mid-overlap: collect the
                # in-flight batch synchronously so the wrapped service's
                # pipes and admission ledger stay consistent.
                _chunk, _shed, planned, charges, _degraded = inflight
                try:
                    service._execute_finish(planned)
                finally:
                    if service.admission is not None:
                        for cost in charges:
                            service.admission.release(cost)

    # ------------------------------------------------------------------
    # Streaming / batch serving
    # ------------------------------------------------------------------
    async def answer_stream(
        self,
        requests: Iterable[VizRequest] | AsyncIterator[VizRequest],
        stream_batch_size: int | None = None,
        *,
        shed_markers: bool = False,
    ) -> AsyncIterator[tuple[VizRequest, RequestOutcome | ServiceOverloadError]]:
        """Serve a stream with plan(N+1) overlapped onto execute(N).

        Chunking, scheduling, planning, and the positional pairing
        contract match the synchronous ``answer_stream`` exactly; with
        admission off the yielded outcomes are bit-identical to it.
        """
        size = (
            self._service.stream_batch_size
            if stream_batch_size is None
            else stream_batch_size
        )
        if size < 1:
            raise QueryError("stream_batch_size must be at least 1")
        async with self._pipeline_lock:
            async for chunk, outcomes, shed_at in self._pipelined(
                _chunked(requests, size)
            ):
                results = iter(outcomes)
                for position, request in enumerate(chunk):
                    error = shed_at.get(position)
                    if error is not None:
                        if shed_markers:
                            yield request, error
                        continue
                    yield request, next(results)

    async def answer_many(
        self, requests: Sequence[VizRequest]
    ) -> list[RequestOutcome]:
        """Serve one batch (a single pipeline chunk, like the sync tier)."""
        requests = list(requests)
        if not requests:
            self._service._last_shed = []
            self._service._shed_indexes = []
            return []
        outcomes: list[RequestOutcome] = []
        async for _, outcome in self.answer_stream(
            requests, stream_batch_size=len(requests)
        ):
            outcomes.append(outcome)
        return outcomes

    async def answer_one(self, request: VizRequest) -> RequestOutcome:
        """Serve a single request, raising its overload error if shed."""
        outcomes = await self.answer_many([request])
        if not outcomes:
            _, error = self._service._last_shed[-1]
            raise error
        return outcomes[0]

    # ------------------------------------------------------------------
    # Session queues: submit / backpressure / batcher
    # ------------------------------------------------------------------
    async def submit(self, request: VizRequest) -> RequestOutcome:
        """Queue one request on its session and await its outcome.

        Applies backpressure when the session's queue is full, charges the
        estimated virtual cost to admission while queued, and raises the
        request's :class:`~repro.errors.ServiceOverloadError` if admission
        sheds it at batch time.
        """
        if self._closed:
            raise QueryError("async service is closed")
        service = self._service
        session = request.effective_session()
        waited = False
        while self._session_depth.get(session, 0) >= self.session_queue_limit:
            if not waited:
                service.stats.n_backpressure_waits += 1
                waited = True
            event = self._space_events.setdefault(session, asyncio.Event())
            event.clear()
            await event.wait()
            if self._closed:
                raise QueryError("async service is closed")
        tau_ms = request.effective_tau(service.default_tau_ms)
        cost_ms = 0.0
        if service.admission is not None:
            cost_ms = service.admission.estimated_cost_ms(tau_ms)
            service.admission.enqueue(cost_ms)
        item = _QueuedRequest(
            request,
            asyncio.get_running_loop().create_future(),
            session,
            cost_ms,
        )
        self._session_depth[session] = self._session_depth.get(session, 0) + 1
        self._unresolved += 1
        self._arrivals.append(item)
        service.stats.record_queue_depth(len(self._arrivals))
        self._arrival_event.set()
        self._ensure_batcher()
        return await item.future

    def _ensure_batcher(self) -> None:
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.get_running_loop().create_task(
                self._drain_queues(), name="maliva-async-batcher"
            )

    def _dequeued(self, item: _QueuedRequest) -> None:
        """Bookkeeping when a queued request leaves its session queue."""
        depth = self._session_depth.get(item.session, 0) - 1
        if depth > 0:
            self._session_depth[item.session] = depth
        else:
            self._session_depth.pop(item.session, None)
        if self._service.admission is not None and item.cost_ms:
            self._service.admission.dequeue(item.cost_ms)
        event = self._space_events.get(item.session)
        if event is not None:
            event.set()
            if item.session not in self._session_depth:
                self._space_events.pop(item.session, None)

    def _take_fair_chunk(self) -> list[_QueuedRequest]:
        """Assemble one micro-batch round-robin across waiting sessions.

        A straight FIFO pop lets one bursty session fill whole chunks while
        a light session's single request waits behind the entire burst.
        Instead, sessions take turns (ordered by their oldest waiting
        arrival, per-session FIFO within a turn), so a session's wait is
        bounded by the number of *sessions* ahead of it, not the number of
        *requests* — the same fairness the dispatcher-side session-affinity
        scheduler provides inside a chunk, applied at the queue boundary.
        Runs synchronously (no awaits), so `submit` cannot interleave.
        """
        by_session: "OrderedDict[str, deque[_QueuedRequest]]" = OrderedDict()
        for item in self._arrivals:
            by_session.setdefault(item.session, deque()).append(item)
        items: list[_QueuedRequest] = []
        while by_session and len(items) < self.stream_batch_size:
            for session in list(by_session):
                queue = by_session[session]
                items.append(queue.popleft())
                if not queue:
                    del by_session[session]
                if len(items) >= self.stream_batch_size:
                    break
        taken = {id(item) for item in items}
        self._arrivals = deque(
            item for item in self._arrivals if id(item) not in taken
        )
        for item in items:
            self._dequeued(item)
        return items

    async def _queued_chunks(self, item_chunks: deque) -> AsyncIterator[list]:
        """Pop arrival-queue chunks for the pipeline, dequeuing each item."""
        while self._arrivals:
            items = self._take_fair_chunk()
            item_chunks.append(items)
            yield [item.request for item in items]
            # Let fresh submissions land before deciding whether another
            # chunk exists — the pipeline overlaps its plan stage with
            # this chunk's execute stage.
            await asyncio.sleep(0)

    def _resolve(self, items: list[_QueuedRequest], outcomes, shed_at) -> None:
        """Settle one chunk's futures from its outcomes / shed errors."""
        results = iter(outcomes)
        for position, item in enumerate(items):
            error = shed_at.get(position)
            self._unresolved -= 1
            if item.future.done():  # abandoned by its submitter
                if error is None:
                    next(results, None)
                continue
            if error is not None:
                item.future.set_exception(error)
            else:
                item.future.set_result(next(results))

    def _fail_items(self, items: list[_QueuedRequest], error: Exception) -> None:
        for item in items:
            self._unresolved -= 1
            if not item.future.done():
                item.future.set_exception(error)

    def _fail_pending(self, error: Exception) -> None:
        while self._arrivals:
            item = self._arrivals.popleft()
            self._dequeued(item)
            self._fail_items([item], error)

    async def _drain_queues(self) -> None:
        """The batcher task: feed queued chunks through the pipeline.

        A failure settles the affected futures with the error and keeps
        the batcher alive for later traffic — the exception always reaches
        a submitter through its future, never dies unretrieved in the
        task.
        """
        while True:
            if not self._arrivals:
                if self._closed:
                    return
                self._arrival_event.clear()
                if self._arrivals or self._closed:
                    continue
                await self._arrival_event.wait()
                continue
            item_chunks: deque = deque()
            try:
                async with self._pipeline_lock:
                    async for _chunk, outcomes, shed_at in self._pipelined(
                        self._queued_chunks(item_chunks)
                    ):
                        self._resolve(item_chunks.popleft(), outcomes, shed_at)
            except Exception as error:  # noqa: BLE001 - settle, keep serving
                while item_chunks:
                    self._fail_items(item_chunks.popleft(), error)
                self._fail_pending(error)

    # ------------------------------------------------------------------
    # Quiescence and lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every submitted request has settled."""
        while self._unresolved:
            await asyncio.sleep(0.001)

    async def append_rows(self, table_name: str, columns) -> None:
        """Quiesce the pipeline, then mutate (syncs cannot overlap a batch)."""
        await self.drain()
        self._service.append_rows(table_name, columns)

    async def close(self) -> None:
        """Drain queued work, stop the batcher; the wrapped service stays up."""
        if self._closed:
            return
        self._closed = True
        self._arrival_event.set()
        for event in self._space_events.values():
            event.set()
        if self._batcher is not None:
            await self._batcher

    async def __aenter__(self) -> "AsyncMalivaService":
        return self

    async def __aexit__(self, *_exc) -> bool:
        await self.close()
        return False
