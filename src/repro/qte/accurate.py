"""The Accurate-QTE: an oracle estimator with realistic collection costs.

Mirrors the paper's Section 7.1 setup: "we used the actual execution time of
the hinted queries as the estimation, and set up a unit cost parameter to
represent the time of collecting the selectivity value of one filtering
condition" (40 ms by default).  Accuracy is perfect; cost is high — the MDP
agent must decide whether the budget can afford it.

Like the sampling QTE, the accurate QTE keeps cross-request memos of its
collected values (true selectivities and true execution times) and answers
a lockstep wave's cold probes in fused per-attribute sweeps
(:meth:`AccurateQTE.collect_wave`).  Virtual estimation costs are *not*
affected — the paper's C_i accounting charges per request regardless of how
fast the middleware's hardware produces the number.
"""

from __future__ import annotations

from typing import Sequence

from ..db import Database, SelectQuery
from ..db.predicates import Predicate
from .base import EstimationOutcome, QueryTimeEstimator, required_attributes
from .fused import fused_predicate_counts
from .selectivity import SelectivityCache


class AccurateQTE(QueryTimeEstimator):
    """Oracle QTE: exact times, 40 ms per uncollected selectivity."""

    name = "accurate"

    def __init__(
        self,
        database: Database,
        unit_cost_ms: float = 40.0,
        overhead_ms: float = 2.0,
    ) -> None:
        if unit_cost_ms < 0 or overhead_ms < 0:
            raise ValueError("QTE costs must be non-negative")
        self._db = database
        self.unit_cost_ms = unit_cost_ms
        self.overhead_ms = overhead_ms
        #: (table, predicate key) -> true selectivity.
        self._sel_memo: dict[tuple, float] = {}
        #: rewritten-query key -> true execution time.
        self._time_memo: dict[tuple, float] = {}
        if database is not None:
            # Self-invalidate on any catalog change, so even a bare Maliva
            # facade (no serving layer attached) never serves stale memos.
            database.add_invalidation_hook(self._on_table_invalidated)

    def _on_table_invalidated(self, table_name: str) -> None:
        self.invalidate()

    def cost_structure(self) -> tuple[float, float]:
        return (self.unit_cost_ms, self.overhead_ms)

    def estimate(
        self, rewritten: SelectQuery, cache: SelectivityCache
    ) -> EstimationOutcome:
        needed = required_attributes(rewritten)
        missing = cache.missing(needed)
        cost_ms = self.estimation_cost_ms(len(missing))
        by_column = {p.column: p for p in rewritten.predicates}
        for attribute in missing:
            cache.put(
                attribute,
                self._true_selectivity(rewritten.table, by_column[attribute]),
            )
        estimated_ms = self._true_time(rewritten)
        return EstimationOutcome(estimated_ms=estimated_ms, cost_ms=cost_ms)

    # ------------------------------------------------------------------
    # Value resolution (memo-first)
    # ------------------------------------------------------------------
    def _true_selectivity(self, table_name: str, predicate: Predicate) -> float:
        key = (table_name, predicate.key())
        cached = self._sel_memo.get(key)
        if cached is None:
            cached = self._db.true_selectivity(table_name, predicate)
            self._sel_memo[key] = cached
        return cached

    def _true_time(self, rewritten: SelectQuery) -> float:
        key = rewritten.key()
        cached = self._time_memo.get(key)
        if cached is None:
            cached = self._db.true_execution_time_ms(rewritten)
            self._time_memo[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Fused wave collection
    # ------------------------------------------------------------------
    def collect_wave(
        self, wave: Sequence[tuple[SelectQuery, Sequence[Predicate]]]
    ) -> None:
        """Resolve one lockstep wave's cold values in fused passes.

        Selectivity probes are deduplicated against the memo and counted in
        one vectorized sweep per (table, predicate kind, column) group —
        the same predicate-mask arithmetic ``Database.true_selectivity``
        performs, so memoized values are bit-identical to the sequential
        path.  True execution times resolve per distinct rewritten query
        (the engine memoizes them by plan, so repeats are free).
        """
        self.collect_pairs(
            [
                (rewritten.table, probe)
                for rewritten, probes in wave
                for probe in probes
            ]
        )
        for rewritten, _probes in wave:
            self._true_time(rewritten)

    def collect_pairs(
        self, pairs: Sequence[tuple[str, Predicate]]
    ) -> None:
        """Fused cold-path collection of (table, probe) selectivities."""
        pending: dict[tuple, tuple[str, Predicate]] = {}
        for table_name, predicate in pairs:
            key = (table_name, predicate.key())
            if key not in pending and key not in self._sel_memo:
                pending[key] = (table_name, predicate)
        if not pending:
            return
        groups: dict[tuple, list[Predicate]] = {}
        for table_name, predicate in pending.values():
            groups.setdefault(
                (table_name, type(predicate), predicate.column), []
            ).append(predicate)
        for (table_name, kind, column), group in groups.items():
            table = self._db.table(table_name)
            if table.n_rows == 0:
                for predicate in group:
                    self._sel_memo[(table_name, predicate.key())] = 0.0
                continue
            counts = fused_predicate_counts(table, kind, column, group)
            for predicate, count in zip(group, counts):
                self._sel_memo[(table_name, predicate.key())] = (
                    int(count) / table.n_rows
                )

    def invalidate(self) -> None:
        self._sel_memo.clear()
        self._time_memo.clear()
