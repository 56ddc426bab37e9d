"""Drive one workload and measure it from outside the service.

All load comes from this one thread.  A closed-loop slice feeds
``answer_stream`` (eight clients in flight, each waiting for its reply)
and times a request from the moment the service *pulls* it to the moment
its outcome is *yielded*; an open-loop phase fires ``submit()`` on a fixed
schedule and times a request from the moment it was *due*, so a stall
charges the requests behind it.  A request that raises, is shed, is never
answered or fails the output check is attempted, failed, and misses every
latency limit.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .spec import CHECK_REQUESTS
from .stacks import Stack
from .tracing import Recorder
from .traffic import Traffic

_now = time.perf_counter

#: An open-loop request still unanswered this long after its phase ended
#: counts as never answered.
DRAIN_TIMEOUT_S = 30.0
#: The latency a failed request enters percentiles with: it missed every
#: limit, and a finite stand-in keeps the percentile a number.
MISS_LATENCY_MS = DRAIN_TIMEOUT_S * 1e3
#: Open loop: arrivals per latency window (ten samples beyond its p95).
LATENCY_WINDOW = 200


@contextmanager
def timed_region(recorder: Recorder | None = None, traced: bool = False):
    """Inside: no automatic garbage collection, and spans on if ``traced``.

    A gen-2 collection on this heap stops the world for 50-150 ms and
    lands at random, which would decide a slice's throughput and the open
    loop's p95 by coin toss.  As ``timeit`` does, the timed regions run
    with the collector off; :func:`collect_garbage` runs it between them,
    untimed but measured (``runtime.gc_collect_s``).
    """
    gc.disable()
    if traced:
        recorder.enabled = True
    try:
        yield
    finally:
        if traced:
            recorder.enabled = False
        gc.enable()


def freeze_heap() -> None:
    """End of set-up: what exists now (dataset, indexes, the benchmark's
    twin) leaves the collector's sight, so later collections traverse only
    what serving allocates."""
    gc.collect()
    gc.freeze()


def collect_garbage(window: "Window") -> None:
    started = _now()
    gc.collect()
    window.gc_collect_s += _now() - started


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


@dataclass
class Window:
    """What the timed window of one run produced."""

    attempted: int = 0
    failed: int = 0
    #: Summed wall seconds of the timed slices / phases.
    wall_s: float = 0.0
    #: Wall latency and deadline of every answered request.
    latencies_s: list[float] = field(default_factory=list)
    taus_ms: list[float] = field(default_factory=list)
    #: Closed loop, one value per timed slice: answered / wall seconds, and
    #: the slice's latency percentiles (failed requests enter as misses).
    slice_rps: list[float] = field(default_factory=list)
    slice_p50_ms: list[float] = field(default_factory=list)
    slice_p95_ms: list[float] = field(default_factory=list)
    #: (viable, total_ms) over the requests the virtual metrics cover.
    virtual: list[tuple[bool, float]] = field(default_factory=list)
    virtual_attempted: int = 0
    work: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: First answered requests of the window, for the untimed QTE sample.
    sample: list[tuple[object, object]] = field(default_factory=list)
    #: ingest_mixed: wall ms of the first micro-batch after each append.
    post_append_chunk_ms: list[float] = field(default_factory=list)
    append_s: float = 0.0
    append_calls: int = 0
    #: sqlite: measured engine ms of every answered request.
    backend_ms: list[float] = field(default_factory=list)
    #: Counters folded from ``report()`` after each slice / phase.
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Open loop: per-rate results, keyed ``rate_1``..``rate_4``.
    phases: dict[str, dict] = field(default_factory=dict)
    sched_lag_s: list[float] = field(default_factory=list)
    #: Full collections run between the window's slices / phases.
    gc_collect_s: float = 0.0

    def record_virtual(self, outcomes, attempted: int) -> None:
        self.virtual_attempted += attempted
        for outcome in outcomes:
            self.virtual.append((outcome.viable, outcome.total_ms))
            counters = outcome.result.counters
            self.work["seq_rows"] += counters.seq_rows
            self.work["index_entries"] += counters.index_entries
            self.work["fetched_rows"] += counters.fetched_rows
            self.work["n"] += 1


# ----------------------------------------------------------------------
# report() folding
# ----------------------------------------------------------------------
_WINDOWED_SERVICE = (
    "n_shed",
    "n_tau_degraded",
    "n_overlapped_batches",
    "overlap_plan_s",
    "n_backpressure_waits",
)
_SHARING = (
    "n_queries",
    "n_distinct_scans",
    "shared_scans",
    "n_probes_computed",
    "n_bin_results",
    "shared_bins",
)
SHARD_COUNTERS = (
    "n_scattered",
    "n_fallback",
    "n_plan_scattered",
    "n_plan_fallback",
    "n_mirrored_decisions",
    "n_worker_deaths",
)
ROUTER_COUNTERS = ("n_dispatched", "n_gossip_broadcast", "n_gossip_hits", "n_router_deaths")


def _cumulative(report: dict) -> dict[str, float]:
    """Counters ``report()`` never resets, flattened for differencing."""
    flat = {
        "decision.hits": report["decision_cache"]["hits"],
        "decision.misses": report["decision_cache"]["misses"],
    }
    for cache in report["qte_caches"].values():
        flat["qte.hits"] = flat.get("qte.hits", 0) + cache["hits"]
        flat["qte.misses"] = flat.get("qte.misses", 0) + cache["misses"]
    backend = report.get("backend")
    if backend is not None:
        flat["backend.n_queries"] = backend["n_queries"]
        flat["backend.rows_returned"] = backend["rows_returned"]
        flat["backend.wall_ms"] = backend["wall_ms_total"]
    return flat


def fold_report(counters: dict, report: dict, previous: dict) -> None:
    """Add one slice's ``report()`` to ``counters``.

    Window counters (everything under ``service`` and the engine caches)
    restart at ``reset_stats()`` and are summed; the decision cache, QTE
    memos and backend totals are cumulative, so the slice's share is the
    difference to the ``previous`` report.
    """
    service = report["service"]
    for stage, seconds in service["stage_seconds"].items():
        counters[f"stage.{stage}"] += seconds
    for name in _WINDOWED_SERVICE:
        counters[name] += service[name]
    counters["queue_peak_depth"] = max(
        counters["queue_peak_depth"], service["queue_peak_depth"]
    )
    for name in _SHARING:
        counters[f"sharing.{name}"] += service["execute_sharing"][name]
    for name, cache in report["engine_caches"].items():
        counters["engine.hits"] += cache["hits"]
        counters["engine.misses"] += cache["misses"]
        if name == "plan":
            counters["engine.plan_hits"] += cache["hits"]
            counters["engine.plan_misses"] += cache["misses"]
    now, before = _cumulative(report), _cumulative(previous)
    for name, value in now.items():
        counters[name] += value - before.get(name, 0)

    shards = service.get("shards")
    if shards is not None:
        for name in SHARD_COUNTERS:
            counters[f"shards.{name}"] += shards[name]
        for shard_id, shard in shards["per_shard"].items():
            counters[f"shards.busy.{shard_id}"] += shard["wall_s"]
            counters[f"shards.plan_busy.{shard_id}"] += shard["plan_wall_s"]
    routers = service.get("routers")
    if routers is not None:
        for name in ROUTER_COUNTERS:
            counters[f"routers.{name}"] += routers[name]
        counters["routers.journal_high_water"] = max(
            counters["routers.journal_high_water"], routers["journal_high_water"]
        )
        for router_id, router in routers["per_router"].items():
            counters[f"routers.busy.{router_id}"] += router["wall_s"]
            # Replicas hold the decision caches; the dispatcher's is idle.
            counters["decision.hits"] += router["n_cached"]
            counters["decision.misses"] += router["n_requests"] - router["n_cached"]


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class SliceResult:
    outcomes: list
    latencies_s: list[float]
    wall_s: float
    append_s: float = 0.0
    first_chunk_s: float = 0.0
    error: Exception | None = None

    @property
    def rps(self) -> float:
        return len(self.outcomes) / self.wall_s


def drive_slice(
    stack: Stack,
    requests: list,
    recorder: Recorder | None = None,
    append: dict | None = None,
) -> SliceResult:
    """One closed-loop slice: [append,] then ``requests`` through the stream."""
    service = stack.service
    tracing = recorder is not None and recorder.enabled
    pulled: list[float] = []
    done: list[float] = []
    outcomes: list = []
    root: int | None = None
    answered_at_root = 0

    def feed():
        nonlocal root, answered_at_root
        for request in requests:
            # A pull after an outcome was yielded starts the next micro-batch.
            if tracing and (root is None or len(done) > answered_at_root):
                if root is not None:
                    recorder.end(root)
                root = recorder.begin_chunk()
                answered_at_root = len(done)
            pulled.append(_now())
            yield request

    error: Exception | None = None
    append_s = 0.0
    started = _now()
    try:
        if append is not None:
            token = recorder.begin("db.append", len(append["id"])) if tracing else None
            try:
                service.append_rows("tweets", append)
            finally:
                if token is not None:
                    recorder.end(token)
            append_s = _now() - started
        for _request, outcome in service.answer_stream(feed()):
            done.append(_now())
            outcomes.append(outcome)
    except Exception as exc:  # noqa: BLE001 - the run goes on; the slice's rest failed
        error = exc
        traceback.print_exc(file=sys.stderr)
    finally:
        if root is not None:
            recorder.end(root)
    wall_s = _now() - started

    batch = service.stream_batch_size
    first_chunk_s = done[batch - 1] - pulled[0] if len(done) >= batch else 0.0
    return SliceResult(
        outcomes=outcomes,
        latencies_s=[end - start for start, end in zip(pulled, done)],
        wall_s=wall_s,
        append_s=append_s,
        first_chunk_s=first_chunk_s,
        error=error,
    )


def run_closed(
    stack: Stack,
    traffic: Traffic,
    seconds: float,
    recorder: Recorder | None,
) -> tuple[Window, Window, list]:
    """The timed window: slices until ``seconds`` of slice time are spent.

    Returns the ``untraced`` and ``traced`` windows and, served after the
    window, the ``(request, outcome)`` pairs of the output check.  Without
    a recorder every slice is untraced; with one, slices alternate, so
    that both windows see the same drift and their throughputs give the
    tracing overhead.
    """
    workload = stack.workload
    service = stack.service
    windows = (Window(), Window())
    check_requests = traffic.take_spare(CHECK_REQUESTS)
    spent = 0.0
    index = 0
    freeze_heap()
    previous = service.report()
    while spent < seconds or index < workload.exact_slices:
        requests = traffic.take(workload.slice_requests)
        append = traffic.next_append() if workload.append_rows else None
        traced = recorder is not None and index % 2 == 1
        window = windows[traced]
        service.reset_stats()
        with timed_region(recorder, traced):
            result = drive_slice(stack, requests, recorder, append)
        collect_garbage(window)
        report = service.report()
        fold_report(window.counters, report, previous)
        previous = report

        answered = len(result.outcomes)
        window.attempted += len(requests)
        window.failed += len(requests) - answered
        window.wall_s += result.wall_s
        window.slice_rps.append(result.rps)
        latencies_ms = [s * 1e3 for s in result.latencies_s]
        latencies_ms += [MISS_LATENCY_MS] * (len(requests) - answered)
        window.slice_p50_ms.append(percentile(latencies_ms, 50.0))
        window.slice_p95_ms.append(percentile(latencies_ms, 95.0))
        window.latencies_s.extend(result.latencies_s)
        window.taus_ms.extend(outcome.tau_ms for outcome in result.outcomes)
        if len(window.slice_rps) <= workload.exact_slices or not workload.exact_virtual:
            window.record_virtual(result.outcomes, len(requests))
        if not window.sample:
            window.sample = list(zip(requests, result.outcomes))
        if append is not None:
            window.append_s += result.append_s
            window.append_calls += 1
            window.post_append_chunk_ms.append(result.first_chunk_s * 1e3)
        if stack.backend is not None:
            window.backend_ms.extend(o.execution_ms for o in result.outcomes)
        spent += result.wall_s
        index += 1
    check = drive_slice(stack, check_requests)
    return (*windows, list(zip(check_requests, check.outcomes)))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class Arrival:
    """One open-loop request: when it was due, fired and resolved."""

    request: object
    due: float
    fired: float
    resolved: float | None = None
    #: The outcome, or the exception ``submit()`` raised (shed / failed).
    result: object = None

    @property
    def answered(self) -> bool:
        return self.resolved is not None and not isinstance(self.result, Exception)


async def drive_phase(tier, requests: list, rate_rps: float) -> tuple[list[Arrival], float]:
    """Fire ``requests`` at ``rate_rps`` from one task; wait for the answers.

    Returns the arrivals and the time the phase nominally ended.  A request
    unanswered ``DRAIN_TIMEOUT_S`` after that stays unresolved.
    """
    arrivals: list[Arrival] = []
    tasks: list[asyncio.Task] = []

    async def one(arrival: Arrival) -> None:
        try:
            arrival.result = await tier.submit(arrival.request)
        except Exception as exc:  # noqa: BLE001 - shed or failed: both are failures
            arrival.result = exc
        arrival.resolved = _now()

    started = _now()
    for index, request in enumerate(requests):
        due = started + index / rate_rps
        # Yield, never sleep: an idle core drops into a low-power state and
        # the next request pays for the wake-up (+20 % p50, +60 % p95 at
        # 300 req/s on this host, in some runs and not in others).
        while _now() < due:
            await asyncio.sleep(0)
        arrival = Arrival(request, due, _now())
        arrivals.append(arrival)
        tasks.append(asyncio.create_task(one(arrival)))
    end = started + len(requests) / rate_rps
    while _now() < end:
        await asyncio.sleep(0)
    _done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    return arrivals, end


def summarize_phase(arrivals: list[Arrival], end: float, rate_rps: float, limit_ms: float) -> dict:
    """Latency from due time, failures and backlog growth of one phase."""
    answered = [a for a in arrivals if a.answered]
    latencies_ms = [(a.resolved - a.due) * 1e3 for a in answered]
    failed = len(arrivals) - len(answered)
    failed_share = failed / len(arrivals)
    p95_ms = percentile(latencies_ms + [MISS_LATENCY_MS] * failed, 95.0)
    # No growing backlog: the phase's last quarter waits no more than
    # twice as long as its first.
    quarter = max(1, len(answered) // 4)
    first_p50 = percentile(latencies_ms[:quarter], 50.0)
    last_p50 = percentile(latencies_ms[-quarter:], 50.0)
    # The phase in windows of ~200 arrivals, failures entering as misses:
    # the end-to-end latencies are the quiet-side quartile over these, as
    # over the slices of a closed loop.
    every = [
        (a.resolved - a.due) * 1e3 if a.answered else MISS_LATENCY_MS for a in arrivals
    ]
    windows = np.array_split(every, max(1, len(every) // LATENCY_WINDOW))
    return {
        "window_p50_ms": [percentile(w, 50.0) for w in windows],
        "window_p95_ms": [percentile(w, 95.0) for w in windows],
        "rate_rps": rate_rps,
        "attempted": len(arrivals),
        "failed": failed,
        "failed_share": failed_share,
        "p50_ms": percentile(latencies_ms + [MISS_LATENCY_MS] * failed, 50.0),
        "p95_ms": p95_ms,
        # Answers per second from the phase's first due time to its last
        # answer: the offered rate while the service keeps up, less once a
        # backlog has to drain after the last arrival.
        "completions_rps": len(answered)
        / (max((a.resolved for a in answered), default=end) - arrivals[0].due),
        "first_quarter_p50_ms": first_p50,
        "last_quarter_p50_ms": last_p50,
        "meets_limit": bool(
            p95_ms <= limit_ms and failed_share <= 0.01 and last_p50 <= 2.0 * first_p50
        ),
    }


async def run_open(
    stack: Stack,
    traffic: Traffic,
    seconds: float,
    recorder: Recorder | None,
    on_warm,
) -> tuple[Window, Window, list]:
    """Warm up, then one phase per rate (two half-phases when tracing),
    each for its share of ``seconds``; then the output check's requests.

    ``on_warm()`` is called when the warm-up has ended (set-up stops
    there).  Returns like :func:`run_closed`.
    """
    workload = stack.workload
    windows = (Window(), Window())
    check_pairs: list = []
    offered = workload.phase_requests(seconds)
    async with stack.service as tier:
        first = workload.rates_rps[0]
        await drive_phase(tier, traffic.take_spare(workload.warmup_requests), first)
        on_warm()
        check_requests = traffic.take_spare(CHECK_REQUESTS)
        freeze_heap()
        previous = tier.report()
        for number, rate in enumerate(workload.rates_rps, start=1):
            parts = [False, True] if recorder else [False]
            for traced in parts:
                window = windows[traced]
                requests = traffic.take(max(8, offered[number - 1] // len(parts)))
                tier.reset_stats()
                with timed_region(recorder, traced):
                    arrivals, end = await drive_phase(tier, requests, rate)
                collect_garbage(window)
                report = tier.report()
                fold_report(window.counters, report, previous)
                previous = report

                summary = summarize_phase(arrivals, end, rate, workload.limit_ms)
                answered = [a for a in arrivals if a.answered]
                window.phases[f"rate_{number}"] = summary
                window.attempted += summary["attempted"]
                window.failed += summary["failed"]
                window.wall_s += len(arrivals) / rate
                window.latencies_s.extend(a.resolved - a.due for a in answered)
                # The user's deadline, not one admission shrank under load.
                window.taus_ms.extend([workload.tau_ms] * len(answered))
                window.sched_lag_s.extend(a.fired - a.due for a in arrivals)
                window.record_virtual([a.result for a in answered], len(arrivals))
                if not window.sample:
                    window.sample = [(a.request, a.result) for a in answered]
        # One micro-batch at a time: 64 submits at once would be a
        # backlog, and admission would shrink their deadlines.
        batch = tier.stream_batch_size
        for low in range(0, len(check_requests), batch):
            group = check_requests[low : low + batch]
            outcomes = await asyncio.gather(
                *(tier.submit(request) for request in group), return_exceptions=True
            )
            check_pairs.extend(
                (request, outcome)
                for request, outcome in zip(group, outcomes)
                if not isinstance(outcome, Exception)
            )
    return (*windows, check_pairs)
