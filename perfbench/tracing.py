"""Spans recorded from outside the program, at public seams only.

The traced run hands the service delegating doubles through its public
constructors — a translator and a scheduler via ``ServiceConfig``, an
``AdmissionController``, a ``Maliva`` facade, the QTE handed to it, the
agent's network and an ``ExecutionBackend`` — each of which records a span
around the call it forwards.  Nothing under ``src/`` is edited; tracing
*inside* the program is a later change (ROADMAP: measurement spine).

A span is ``{name, start, end, parent, chunk_id, n}``: ``parent`` is the
index of the span that was open when this one began, ``chunk_id`` ties the
spans of one micro-batch together, ``n`` is the work the call was handed
(queries, rows, probes).  A layer's *self time* is its span's duration
minus the durations of its direct children, so the self times of a tree
add up to the root's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from repro.backends import SqliteBackend
from repro.core import Maliva
from repro.qte import SamplingQTE
from repro.serving import AdmissionController, SessionAffinityScheduler

_now = time.perf_counter

#: Top-level spans of a micro-batch before, and after, its ``order`` call;
#: used to number chunks when no driver-side root span exists (open loop).
_PRE_ORDER = {"serving.admission.admit", "viz.translate", "serving.scheduler.order"}
_EXECUTE = {"db.execute", "backends.execute"}

CHUNK_SPAN = "serving.chunk"


class Recorder:
    """In-memory span list; written out once, when the workload ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._root_chunk = -1
        self._orders_done = 0
        self._executes_done = 0
        #: Options the planner estimated, summed over traced decisions.
        self.n_explored = 0

    def begin(self, name: str, n: int = 1) -> int:
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            chunk = self.spans[parent][4]
        else:
            parent = -1
            chunk = self._rootless_chunk(name)
        self.spans.append([name, _now(), 0.0, parent, chunk, n])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = _now()
        self._stack.pop()
        if span[3] == -1:
            if span[0] == "serving.scheduler.order":
                self._orders_done += 1
            elif span[0] in _EXECUTE:
                self._executes_done += 1

    def begin_chunk(self) -> int:
        """Driver-side root span of one closed-loop micro-batch."""
        self._root_chunk += 1
        index = len(self.spans)
        self.spans.append([CHUNK_SPAN, _now(), 0.0, -1, self._root_chunk, 0])
        self._stack.append(index)
        return index

    def _rootless_chunk(self, name: str) -> int:
        # Open loop: a chunk is admit* translate* order [plan], and its
        # execute runs after the *next* chunk's plan (pipelined), in order.
        if name in _PRE_ORDER:
            return self._orders_done
        if name in _EXECUTE:
            return self._executes_done
        return self._orders_done - 1

    def to_dicts(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "chunk_id", "n")
        return [dict(zip(keys, span)) for span in self.spans]


def write_spans(path: Path, spans: list[dict]) -> None:
    """One JSON object per line, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed duration, summed self time, summed n."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
    )
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        layer = totals[span["name"]]
        layer["calls"] += 1
        layer["total_s"] += duration
        layer["self_s"] += duration - child_time[index]
        layer["n"] += span["n"]
    return dict(totals)


# ----------------------------------------------------------------------
# Delegating doubles (each forwards to the real implementation)
# ----------------------------------------------------------------------
def _spanned(method, name: str, count=None):
    """``method`` of the real class, with a span recorded around the call."""

    def wrapper(self, *args, **kwargs):
        recorder = self.recorder
        if not recorder.enabled:
            return method(self, *args, **kwargs)
        token = recorder.begin(name, count(*args) if count else 1)
        try:
            return method(self, *args, **kwargs)
        finally:
            recorder.end(token)

    wrapper.__name__ = method.__name__
    wrapper.__doc__ = method.__doc__
    return wrapper


def _first_len(first, *_rest) -> int:
    return len(first)


def _wave_probes(wave) -> int:
    return sum(len(probes) for _rewritten, probes in wave)


#: Doubles are built through the real constructors and get their recorder
#: assigned afterwards; until then they forward without recording.
_OFF = Recorder()


class TracedMaliva(Maliva):
    recorder = _OFF
    finish_batch = _spanned(Maliva.finish_batch, "db.execute", _first_len)
    finish = _spanned(Maliva.finish, "db.execute")

    def rewrite_batch(self, queries, tau_ms=None):
        recorder = self.recorder
        if not recorder.enabled:
            return super().rewrite_batch(queries, tau_ms)
        token = recorder.begin("core.rewriter.plan", len(queries))
        try:
            decisions = super().rewrite_batch(queries, tau_ms)
        finally:
            recorder.end(token)
        # Estimation work per decision: options explored before deciding.
        recorder.n_explored += sum(decision.n_explored for decision in decisions)
        return decisions


class TracedSamplingQTE(SamplingQTE):
    recorder = _OFF
    collect_wave = _spanned(SamplingQTE.collect_wave, "qte.collect", _wave_probes)
    collect_batch = _spanned(SamplingQTE.collect_batch, "qte.collect", _first_len)
    estimate = _spanned(SamplingQTE.estimate, "qte.estimate")
    predict_costs = _spanned(SamplingQTE.predict_costs, "qte.predict_costs", _first_len)


class TracedSqliteBackend(SqliteBackend):
    recorder = _OFF
    compile = _spanned(SqliteBackend.compile, "backends.compile")
    execute = _spanned(SqliteBackend.execute, "backends.execute")


class TracedAdmission(AdmissionController):
    recorder = _OFF
    admit = _spanned(AdmissionController.admit, "serving.admission.admit")


class TracedScheduler(SessionAffinityScheduler):
    recorder = _OFF
    order = _spanned(SessionAffinityScheduler.order, "serving.scheduler.order", _first_len)


class TracedTranslator:
    """Stands in for a ``RequestTranslator``: the service only calls ``to_query``."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self.recorder = recorder

    def to_query(self, request):
        recorder = self.recorder
        if not recorder.enabled:
            return self._inner.to_query(request)
        token = recorder.begin("viz.translate")
        try:
            return self._inner.to_query(request)
        finally:
            recorder.end(token)


class TracedNetwork:
    """Stands in for the agent's ``QNetwork`` on the planning path."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self.recorder = recorder

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict_rows(self, states):
        recorder = self.recorder
        if not recorder.enabled:
            return self._inner.predict_rows(states)
        token = recorder.begin("core.qnetwork.forward", len(states))
        try:
            return self._inner.predict_rows(states)
        finally:
            recorder.end(token)
