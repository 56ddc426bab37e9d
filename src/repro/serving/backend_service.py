"""The execute stage on a real execution backend (DESIGN.md §5.4).

:class:`BackendExecute` is an :class:`~repro.serving.service.ExecuteStage`:
``MalivaService(maliva, execute=BackendExecute(backend))`` plans exactly
as the in-memory service does — the MDP agent against the simulated
engine's QTE — but the chosen rewrite executes as compiled SQL on the
:class:`ExecutionBackend`, and ``execution_ms`` becomes *measured wall
clock* instead of virtual cost-model milliseconds.

On the deterministic simulation profile the backend's rows/bins are
pinned identical to the in-memory engine, so everything downstream of
the execute stage (reports, session state) is oblivious to the swap.
"""

from __future__ import annotations

from ..backends.base import ExecutionBackend
from ..core.middleware import RequestOutcome
from ..db.cost_model import WorkCounters
from ..db.executor import ExecutionResult
from ..errors import QueryError
from .service import ExecuteStage, MalivaService, _PlannedBatch

__all__ = ["BackendExecute"]


class BackendExecute(ExecuteStage):
    """Runs each planned rewrite as SQL on ``backend``, in scheduled order."""

    def __init__(self, backend: ExecutionBackend, *, own_backend: bool = True) -> None:
        self.backend = backend
        #: Close the backend with the service (False when it is shared).
        self._own_backend = own_backend
        self._closed = False

    def bind(self, service: MalivaService) -> "BackendExecute":
        if service.quality_fn is not None:
            raise QueryError(
                "quality evaluation compares against the in-memory engine's "
                "ground truth and is not supported on a real backend"
            )
        return super().bind(service)

    def finish(self, planned: _PlannedBatch) -> list[RequestOutcome]:
        maliva = self.service.maliva
        outcomes: list = [None] * len(planned.order)
        for index in planned.order:
            query, tau_ms = planned.resolved[index]
            decision = planned.decisions[index]
            backend_result = self.backend.execute(decision.rewritten)
            # The virtual plan is still attached for featurization/reports
            # (explain is memoized and draws no RNG), but both timing
            # fields carry the backend's measured wall clock and the work
            # counters are zero — no virtual accounting happened.
            result = ExecutionResult(
                plan=maliva.database.explain(decision.rewritten),
                counters=WorkCounters(),
                base_ms=backend_result.wall_ms,
                execution_ms=backend_result.wall_ms,
                row_ids=backend_result.row_ids,
                bins=backend_result.bins,
                obeyed_hints=True,
            )
            outcomes[index] = maliva.assemble_outcome(query, decision, tau_ms, result)
        return outcomes

    def table_invalidated(self, table_name: str) -> None:
        """Ship the rows the in-memory table gained, so the plan and the
        execution see the same table however it was appended to.

        The backend knows how many rows it holds, so two services sharing
        one database and one backend load each row once.
        """
        database = self.service.maliva.database
        loaded = self.backend.rows_loaded(table_name)
        if self._closed or loaded is None or not database.has_table(table_name):
            return
        table = database.table(table_name)
        if table.n_rows > loaded:
            self.backend.append_rows(table_name, table, loaded)

    def report(self) -> dict:
        return {
            "backend": {
                "name": self.backend.name,
                "profile": self.backend.profile.title,
                **self.backend.stats.snapshot(),
            }
        }

    def close(self) -> None:
        self._closed = True
        if self._own_backend:
            self.backend.close()
