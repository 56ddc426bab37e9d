"""Serving on a real execution backend (DESIGN.md §5.4).

:class:`BackendMalivaService` overrides exactly the ``_execute_stage``
seam of :class:`MalivaService` — the same hook the sharded service
scatters across worker processes — so the resolve/schedule/plan stages
(and the async tier's ``_execute_begin``/``_finish`` wrapping) are
untouched: planning still runs the MDP agent against the simulated
engine's QTE, but the chosen rewrite executes as compiled SQL on the
:class:`ExecutionBackend`, and ``execution_ms`` becomes *measured wall
clock* instead of virtual cost-model milliseconds.

On the deterministic simulation profile the backend's rows/bins are
pinned identical to the in-memory engine, so everything downstream of
the execute stage (quality, reports, session state) is oblivious to the
swap.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..backends.base import ExecutionBackend
from ..core.middleware import Maliva, RequestOutcome
from ..db import SelectQuery
from ..db.cost_model import WorkCounters
from ..db.executor import ExecutionResult
from ..errors import QueryError
from .requests import VizRequest
from .service import MalivaService
from .stats import RequestRecord

__all__ = ["BackendMalivaService"]


class BackendMalivaService(MalivaService):
    """A :class:`MalivaService` whose execute stage runs on a real engine."""

    def __init__(
        self,
        maliva: Maliva,
        backend: ExecutionBackend,
        *,
        own_backend: bool = True,
        **kwargs,
    ) -> None:
        if kwargs.get("quality_fn") is not None:
            raise QueryError(
                "quality evaluation compares against the in-memory engine's "
                "ground truth and is not supported on a real backend"
            )
        super().__init__(maliva, **kwargs)
        self.backend = backend
        #: Close the backend with the service (False when it is shared).
        self._own_backend = own_backend

    def _execute_stage(
        self,
        requests: Sequence[VizRequest],
        resolved: list[tuple[SelectQuery, float]],
        order: list[int],
        decisions: list[object | None],
        cached_flags: list[bool],
        shared_s: float,
    ) -> list[RequestOutcome | None]:
        outcomes: list[RequestOutcome | None] = [None] * len(requests)
        execute_started = time.perf_counter()
        for index in order:
            started = time.perf_counter()
            query, tau_ms = resolved[index]
            decision = decisions[index]
            backend_result = self.backend.execute(decision.rewritten)
            # The virtual plan is still attached for featurization/reports
            # (explain is memoized and draws no RNG), but both timing
            # fields carry the backend's measured wall clock and the work
            # counters are zero — no virtual accounting happened.
            result = ExecutionResult(
                plan=self.maliva.database.explain(decision.rewritten),
                counters=WorkCounters(),
                base_ms=backend_result.wall_ms,
                execution_ms=backend_result.wall_ms,
                row_ids=backend_result.row_ids,
                bins=backend_result.bins,
                obeyed_hints=True,
            )
            outcome = self.maliva.assemble_outcome(query, decision, tau_ms, result)
            outcomes[index] = outcome
            request = requests[index]
            self.stats.record(
                RequestRecord(
                    request_id=request.request_id,
                    session_id=request.effective_session(),
                    tau_ms=tau_ms,
                    planning_ms=outcome.planning_ms,
                    execution_ms=outcome.execution_ms,
                    viable=outcome.viable,
                    wall_s=(time.perf_counter() - started) + shared_s,
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses,
                    decision_cached=cached_flags[index],
                )
            )
        self.stats.record_stage("execute", time.perf_counter() - execute_started)
        return outcomes

    def append_rows(self, table_name: str, columns) -> None:
        """Mutate the in-memory table *and* the engine's copy of it, so the
        plan and the execution both see the appended rows."""
        table = self.maliva.database.table(table_name)
        first_new = table.n_rows
        super().append_rows(table_name, columns)
        self.backend.append_rows(table_name, table, first_new)

    def report(self) -> dict:
        report = super().report()
        report["backend"] = {
            "name": self.backend.name,
            "profile": self.backend.profile.title,
            **self.backend.stats.snapshot(),
        }
        return report

    def close(self) -> None:
        super().close()
        if self._own_backend:
            self.backend.close()
