"""Cost-based optimizer over the statistics of Section ``statistics``.

The optimizer mirrors a System-R style engine:

* it enumerates access paths (every subset of applicable indexes, row-id
  lists intersected) and join methods,
* costs each candidate with the shared :class:`~repro.db.cost_model.CostModel`
  applied to **estimated** work counters derived from **estimated**
  selectivities (attribute independence),
* and picks the cheapest.

Because text and spatial selectivities are systematically misestimated (see
``statistics.py``), the optimizer regularly prefers a plan that is far from
the true optimum — the failure mode Maliva's hints fix from the outside.

Hinted planning (``query.hints``) bypasses enumeration: the hint dictates the
exact index set (and join method), exactly like ``pg_hint_plan``.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, combinations
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import PlanningError
from .cost_model import WorkCounters
from .plans import AccessPath, JoinStep, PhysicalPlan, ScanPlan
from .predicates import Predicate
from .query import JOIN_METHODS, SelectQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database


def _subsets(items: tuple[str, ...]) -> Iterable[tuple[str, ...]]:
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


class Optimizer:
    """Plans queries against a :class:`~repro.db.database.Database` catalog."""

    def __init__(self, database: "Database") -> None:
        self._db = database

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(self, query: SelectQuery, obey_hints: bool = True) -> PhysicalPlan:
        """Produce a physical plan; honours ``query.hints`` when asked to."""
        oracle = self._oracle(
            query.table, None if query.join is None else query.join.table
        )
        if query.hints is not None and obey_hints:
            return self._hinted_plan(query, oracle)
        return self._best_plan(query, oracle)

    def indexable_attributes(self, query: SelectQuery) -> tuple[str, ...]:
        """Main-table filter attributes that have an index to exploit."""
        attrs = []
        for predicate in query.predicates:
            index = self._db.index(query.table, predicate.column)
            if index is not None and index.supports(predicate):
                attrs.append(predicate.column)
        return tuple(attrs)

    def estimate_plan(
        self, plan: PhysicalPlan, query: SelectQuery
    ) -> tuple[float, float]:
        """(estimated cost in ms, estimated output rows) for ``plan``."""
        oracle = self._oracle(
            plan.scan.table, None if plan.join is None else plan.join.inner_table
        )
        counters, out_rows = derive_counters(plan, **oracle)
        return self._db.cost_model.time_ms(counters), out_rows

    # ------------------------------------------------------------------
    # Hinted planning
    # ------------------------------------------------------------------
    def _hinted_plan(self, query: SelectQuery, oracle: dict) -> PhysicalPlan:
        hints = query.hints
        assert hints is not None
        access: list[AccessPath] = []
        residual: list[Predicate] = []
        for predicate in query.predicates:
            if predicate.column in hints.index_on:
                index = self._db.index(query.table, predicate.column)
                if index is None or not index.supports(predicate):
                    raise PlanningError(
                        f"hint requests index on {query.table}.{predicate.column} "
                        "but no usable index exists"
                    )
                access.append(AccessPath(predicate, index.kind))
            else:
                residual.append(predicate)
        scan = ScanPlan(query.table, tuple(access), tuple(residual))

        join: JoinStep | None = None
        if query.join is not None:
            method = hints.join_method
            if method is None:
                method = self._cheapest_join_method(query, scan, oracle)
            join = JoinStep(
                method=method,
                inner_table=query.join.table,
                left_column=query.join.left_column,
                right_column=query.join.right_column,
                inner_predicates=query.join.predicates,
            )
        return self._finalize(query, scan, join, oracle)

    def _cheapest_join_method(
        self, query: SelectQuery, scan: ScanPlan, oracle: dict
    ) -> str:
        best_method = JOIN_METHODS[0]
        best_cost = math.inf
        for method in JOIN_METHODS:
            assert query.join is not None
            join = JoinStep(
                method,
                query.join.table,
                query.join.left_column,
                query.join.right_column,
                query.join.predicates,
            )
            candidate = self._finalize(query, scan, join, oracle)
            if candidate.estimated_cost_ms < best_cost:
                best_cost = candidate.estimated_cost_ms
                best_method = method
        return best_method

    # ------------------------------------------------------------------
    # Cost-based enumeration
    # ------------------------------------------------------------------
    def _best_plan(self, query: SelectQuery, oracle: dict) -> PhysicalPlan:
        indexable = self.indexable_attributes(query)
        best: PhysicalPlan | None = None
        for subset in _subsets(indexable):
            chosen = set(subset)
            access = []
            residual = []
            for predicate in query.predicates:
                if predicate.column in chosen:
                    index = self._db.index(query.table, predicate.column)
                    assert index is not None
                    access.append(AccessPath(predicate, index.kind))
                else:
                    residual.append(predicate)
            scan = ScanPlan(query.table, tuple(access), tuple(residual))
            for join in self._join_candidates(query):
                candidate = self._finalize(query, scan, join, oracle)
                if best is None or candidate.estimated_cost_ms < best.estimated_cost_ms:
                    best = candidate
        if best is None:  # pragma: no cover - guarded by SelectQuery validation
            raise PlanningError(f"no plan found for query on {query.table}")
        return best

    def _join_candidates(self, query: SelectQuery) -> list[JoinStep | None]:
        if query.join is None:
            return [None]
        return [
            JoinStep(
                method,
                query.join.table,
                query.join.left_column,
                query.join.right_column,
                query.join.predicates,
            )
            for method in JOIN_METHODS
        ]

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _oracle(self, table: str, inner_table: str | None) -> dict:
        """:func:`derive_counters`' statistics arguments, each predicate's
        selectivity estimated at most once however many candidate plans
        (index subsets, join methods) ask for it.  The memos live as long
        as one ``plan()`` call."""
        stats = self._db.stats(table)
        oracle = {
            "n_rows": stats.n_rows,
            "selectivity": cache(stats.estimate_selectivity),
            "inner_rows": None,
            "inner_selectivity": None,
        }
        if inner_table is not None:
            inner = self._db.stats(inner_table)
            oracle["inner_rows"] = inner.n_rows
            oracle["inner_selectivity"] = cache(inner.estimate_selectivity)
        return oracle

    def _finalize(
        self, query: SelectQuery, scan: ScanPlan, join: JoinStep | None, oracle: dict
    ) -> PhysicalPlan:
        plan = PhysicalPlan(
            scan=scan, join=join, group_by=query.group_by, limit=query.limit
        )
        counters, out_rows = derive_counters(plan, **oracle)
        plan.estimated_cost_ms = self._db.cost_model.time_ms(counters)
        plan.estimated_rows = out_rows
        selectivity = oracle["selectivity"]
        plan.estimated_access_selectivities = tuple(
            selectivity(path.predicate) for path in scan.access
        )
        return plan


def derive_counters(
    plan: PhysicalPlan,
    *,
    n_rows: float,
    selectivity: Callable[[Predicate], float],
    inner_rows: float | None,
    inner_selectivity: Callable[[Predicate], float] | None,
) -> tuple[WorkCounters, float]:
    """Derive work counters for ``plan`` from a selectivity oracle.

    The optimizer calls this with *estimated* selectivities; tests call it
    with *true* selectivities to validate that the executor's actual counters
    agree with the analytic model.  Returns ``(counters, output_rows)``.
    """
    counters = WorkCounters()
    scan = plan.scan
    access_sels = [selectivity(path.predicate) for path in scan.access]
    all_sel = 1.0
    for sel in access_sels:
        all_sel *= sel
    for predicate in scan.residual:
        all_sel *= selectivity(predicate)

    if scan.is_full_scan:
        counters.seq_rows += n_rows
        card = n_rows * all_sel
    else:
        access_matches = [n_rows * sel for sel in access_sels]
        access_sel = 1.0
        for sel in access_sels:
            access_sel *= sel
        counters.index_probes += len(scan.access)
        counters.index_entries += sum(access_matches)
        if len(scan.access) > 1:
            counters.intersect_entries += sum(access_matches)
        candidates = n_rows * access_sel
        counters.fetched_rows += candidates
        counters.residual_checks += candidates * len(scan.residual)
        card = n_rows * all_sel

    out_rows = card
    if plan.join is not None:
        assert inner_rows is not None and inner_selectivity is not None
        inner_sel = 1.0
        for predicate in plan.join.inner_predicates:
            inner_sel *= inner_selectivity(predicate)
        if plan.join.method == "nestloop":
            counters.join_probe_rows += out_rows
            counters.residual_checks += out_rows * len(plan.join.inner_predicates)
        elif plan.join.method == "hash":
            counters.seq_rows += inner_rows
            counters.join_build_rows += inner_rows * inner_sel
            counters.join_probe_rows += out_rows
        else:  # merge
            counters.seq_rows += inner_rows
            inner_kept = inner_rows * inner_sel
            counters.sort_work += out_rows * math.log2(out_rows + 2)
            counters.sort_work += inner_kept * math.log2(inner_kept + 2)
        out_rows *= inner_sel

    if plan.limit is not None and out_rows > plan.limit:
        factor = plan.limit / out_rows
        counters = counters.scaled(factor)
        out_rows = float(plan.limit)

    if plan.group_by is not None:
        counters.group_rows += out_rows
        counters.output_rows += min(out_rows, 2_048.0)
    else:
        counters.output_rows += out_rows
    return counters, out_rows
