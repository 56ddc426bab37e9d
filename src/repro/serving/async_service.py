"""The async front end: session queues over the synchronous pipeline.

:class:`AsyncMalivaService` is a cooperative (single-threaded asyncio)
facade over a :class:`~repro.serving.service.MalivaService`, whatever
execute stage it runs.  Every micro-batch goes through the wrapped
service's own pipeline — ``answer_many`` / ``_stream_chunk``, one
``ExecuteStage.run`` call each — so outcomes, virtual times and request
records are **bit-identical** to the synchronous stream with the same
chunking (DESIGN.md §4.6).  What the facade adds is the front of the
pipeline:

* **bounded session queues with backpressure.**  :meth:`submit` enqueues
  one request on its session's queue and returns an awaitable outcome; a
  session past ``session_queue_limit`` waits (backpressure) instead of
  growing without bound.  Each queued request charges its *estimated*
  virtual cost to the :class:`~repro.serving.admission.
  AdmissionController` via ``enqueue``/``dequeue``, so shed and degrade
  verdicts see the backlog — queued plus in-flight work — not just the
  work already dispatched.  Because admission observes queue pressure
  the synchronous tier never generates, verdicts under load
  legitimately differ from a synchronous replay; the bit-identity
  contract is defined over admission-off (or identically-admitted)
  traffic.
* **a fair drain.**  One batcher task assembles micro-batches round-robin
  across waiting sessions (see :meth:`AsyncMalivaService.
  _take_fair_chunk`), so one bursty session cannot starve a light
  session's requests behind its backlog.  A chunk that raises fails only
  its own requests' futures; the batcher goes on to the next chunk.

:meth:`answer_stream` holds the pipeline lock for the whole stream, so the
batcher cannot split it, and keeps the synchronous pairing contract:
``(request, outcome)`` pairs aligned positionally over admitted requests,
with ``shed_markers=True`` surfacing shed requests in arrival order as
``(request, ServiceOverloadError)`` pairs.

The facade does not own the wrapped service: :meth:`close` quiesces the
batcher task but leaves the service (and its stage's fleet) running for
the owner to close.
"""

from __future__ import annotations

import asyncio
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
    """Async front end over a MalivaService (any execute stage)."""

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
    # Streaming / batch serving
    # ------------------------------------------------------------------
    async def answer_stream(
        self,
        requests: Iterable[VizRequest] | AsyncIterator[VizRequest],
        stream_batch_size: int | None = None,
        *,
        shed_markers: bool = False,
    ) -> AsyncIterator[tuple[VizRequest, RequestOutcome | ServiceOverloadError]]:
        """Serve a sync or async stream chunk by chunk; each chunk is one
        pass of the synchronous pipeline, so chunking, scheduling,
        planning, admission and the pairing contract are exactly the
        synchronous ``answer_stream``'s."""
        size = (
            self._service.stream_batch_size
            if stream_batch_size is None
            else stream_batch_size
        )
        if size < 1:
            raise QueryError("stream_batch_size must be at least 1")
        async with self._pipeline_lock:
            async for chunk in _chunked(requests, size):
                for pair in self._service._stream_chunk(chunk, shed_markers):
                    yield pair

    async def answer_many(
        self, requests: Sequence[VizRequest]
    ) -> list[RequestOutcome]:
        """Serve one batch (a single pipeline pass, like the sync tier)."""
        async with self._pipeline_lock:
            return self._service.answer_many(requests)

    async def answer_one(self, request: VizRequest) -> RequestOutcome:
        """Serve a single request, raising its overload error if shed."""
        async with self._pipeline_lock:
            return self._service.answer_one(request)

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

    def _settle(self, items: list[_QueuedRequest], results: list) -> None:
        """Settle one chunk's futures, by position, from its outcomes or
        errors (a shed request's overload error, or the chunk's failure)."""
        for item, result in zip(items, results):
            self._unresolved -= 1
            if item.future.done():  # abandoned by its submitter
                continue
            if isinstance(result, Exception):
                item.future.set_exception(result)
            else:
                item.future.set_result(result)

    async def _drain_queues(self) -> None:
        """The batcher task: serve queued requests one fair chunk at a time.

        A chunk that raises settles its own futures with the error — the
        way a synchronous ``answer_many`` raises for its whole batch — and
        the batcher serves the next chunk: the exception always reaches a
        submitter through its future, never dies unretrieved in the task.
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
            async with self._pipeline_lock:
                items = self._take_fair_chunk()
                chunk = [item.request for item in items]
                try:
                    pairs = list(
                        self._service._stream_chunk(chunk, shed_markers=True)
                    )
                except Exception as error:  # noqa: BLE001 - settle, keep serving
                    self._settle(items, [error] * len(items))
                else:
                    self._settle(items, [result for _, result in pairs])
            # Let fresh submissions land before the next chunk is assembled.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Quiescence and lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every submitted request has settled."""
        while self._unresolved:
            await asyncio.sleep(0.001)

    async def append_rows(self, table_name: str, columns) -> None:
        """Serve everything already submitted, then mutate."""
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
