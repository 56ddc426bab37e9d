"""Physical plan execution with plan-faithful work accounting.

Design note (also in DESIGN.md): the executor computes *results* through the
cheapest correct path available (indexes, vectorized masks), but *charges*
work according to the plan's semantics — a full-scan plan is charged for
touching every row even though the answer is assembled from memoized row-id
sets.  Results are therefore always exact for the table the plan reads, while
virtual execution time faithfully reflects the plan the database chose.

Execution is split into :meth:`Executor.scan_rows` (scan + join + limit — the
row-selection phase) and :meth:`Executor.finalize` (aggregation/projection),
and every engine touch goes through an :class:`EngineAccess` provider.  The
batch executor (``batch_executor.py``) swaps in a provider that shares
predicate row sets, index probes, and bin sweeps across a whole batch while
running the *same* access sequence — which is what keeps batched execution
bit-identical to this per-request path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ExecutionError
from .binning import bin_counts
from .cost_model import WorkCounters
from .plans import PhysicalPlan
from .predicates import Predicate
from .query import SelectQuery
from .rowset import RowSet, intersect_all

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .indexes import IndexLookup


@dataclass(frozen=True)
class ScanCardinalities:
    """Per-stage sizes one scan produced — what every charge derives from.

    These are the quantities the scatter/gather merge contract ships across
    process boundaries (``repro/db/sharding.py``): each one partitions
    across row-range shards (sums of shard-local values equal the
    whole-table values), so the router can replay canonical accounting with
    :func:`charge_scan` over the summed cardinalities.
    """

    #: Per access path: size of the path's match set.
    path_rowset_lens: tuple[int, ...] = ()
    #: Per access path: size of the running intersection after the path.
    path_cand_lens: tuple[int, ...] = ()
    #: Candidate count after scan + residual (pre-LIMIT, pre-join).
    final_len: int = 0

    @staticmethod
    def merge(parts: "list[ScanCardinalities]") -> "ScanCardinalities":
        """Element-wise sum across row-range partitions of one scan."""
        if not parts:
            raise ValueError("merge needs at least one ScanCardinalities")
        n_paths = len(parts[0].path_rowset_lens)
        return ScanCardinalities(
            path_rowset_lens=tuple(
                sum(part.path_rowset_lens[i] for part in parts)
                for i in range(n_paths)
            ),
            path_cand_lens=tuple(
                sum(part.path_cand_lens[i] for part in parts)
                for i in range(n_paths)
            ),
            final_len=sum(part.final_len for part in parts),
        )


def charge_scan(
    counters: WorkCounters,
    scan,
    n_table_rows: int,
    path_entries: tuple[int, ...],
    cards: ScanCardinalities,
) -> None:
    """Charge the canonical scan work for ``cards`` onto ``counters``.

    The single accounting rule shared by the per-request executor, the
    batch executor, and the shard router's gather: charges are a pure
    function of the plan's scan, the table size, per-path index entry
    counts, and the stage cardinalities — commutative integer adds, so
    charging after the scan computes is bit-identical to charging inline.
    """
    if scan.is_full_scan:
        counters.seq_rows += n_table_rows
        return
    for position, entries in enumerate(path_entries):
        counters.index_probes += 1
        counters.index_entries += entries
        if position > 0:
            counters.intersect_entries += (
                cards.path_cand_lens[position - 1]
                + cards.path_rowset_lens[position]
            )
    fetched = cards.path_cand_lens[-1]
    counters.fetched_rows += fetched
    if scan.residual:
        counters.residual_checks += fetched * len(scan.residual)


@dataclass
class ExecutionResult:
    """Outcome of executing one physical plan."""

    plan: PhysicalPlan
    counters: WorkCounters
    #: Noiseless cost-model time for the counters.
    base_ms: float
    #: Actual charged time (noise / caching effects applied by the database).
    execution_ms: float
    #: Result rows in *base-table* row-id space (None for aggregates).
    row_ids: np.ndarray | None
    #: BIN_ID -> (scaled) count for aggregate queries (None otherwise).
    bins: dict[int, float] | None
    #: False when the engine decided to ignore the query's hints.
    obeyed_hints: bool = True
    #: Engine-cache (match/lookup/plan/true-time) hits while serving this
    #: query — cross-request reuse surfaced to the serving layer.
    cache_hits: int = 0
    cache_misses: int = 0
    #: True when the physical plan came from the plan cache.
    plan_cached: bool = False

    @property
    def kind(self) -> str:
        return "bins" if self.bins is not None else "rows"

    @property
    def result_size(self) -> int:
        if self.bins is not None:
            return len(self.bins)
        assert self.row_ids is not None
        return int(len(self.row_ids))


class EngineAccess:
    """How the executor reaches the engine's shared matching services.

    The default implementation simply delegates to the database's memoized
    services; the batch executor substitutes one that adds batch-level
    sharing.  Whatever the provider does internally, it must return values
    identical to these defaults and drive the instrumented caches through
    the same get/put sequence — the executor charges work from the returned
    objects, so identical values mean identical counters.
    """

    def __init__(self, database: "Database") -> None:
        self._db = database

    def match_rowset(self, table_name: str, predicate: Predicate) -> RowSet:
        return self._db.match_rowset(table_name, predicate)

    def index_lookup(self, table_name: str, predicate: Predicate) -> "IndexLookup":
        return self._db.index_lookup(table_name, predicate)

    def access_rowset(
        self, table_name: str, predicate: Predicate, lookup: "IndexLookup"
    ) -> RowSet:
        """RowSet for an access path's lookup (fresh per call by default)."""
        return RowSet.from_ids(lookup.row_ids, self._db.table(table_name).n_rows)


class Executor:
    """Executes physical plans against the database's storage."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        self._access = EngineAccess(database)

    def run(self, plan: PhysicalPlan, query: SelectQuery) -> tuple[WorkCounters, np.ndarray | None, dict[int, float] | None]:
        """Execute ``plan`` and return (counters, row_ids, bins).

        Row ids are returned in base-table space so approximate results read
        from sample tables remain comparable with exact results.
        """
        counters, result_ids, _cards = self.scan_rows(plan)
        return self.finalize(plan, counters, result_ids)

    def scan_rows(
        self,
        plan: PhysicalPlan,
        access: EngineAccess | None = None,
        *,
        apply_limit: bool = True,
    ) -> tuple[WorkCounters, np.ndarray, ScanCardinalities]:
        """Row-selection phase: scan, join, and LIMIT — everything before
        aggregation/projection.  Returns (counters so far, local row ids,
        the scan's stage cardinalities).

        ``apply_limit=False`` skips LIMIT scaling/truncation — the shard
        engine's slice scans, where the router applies the LIMIT to the
        merged result instead (``merge_scatter``).
        """
        access = access or self._access
        counters = WorkCounters()
        table = self._db.table(plan.scan.table)

        result_ids, cards, path_entries = self._run_scan(plan, access)
        charge_scan(counters, plan.scan, table.n_rows, path_entries, cards)
        if plan.join is not None:
            result_ids = self._run_join(plan, table, result_ids, counters, access)

        if apply_limit and plan.limit is not None and len(result_ids) > plan.limit:
            factor = plan.limit / len(result_ids)
            counters = counters.scaled(factor)
            result_ids = result_ids[: plan.limit]
        return counters, result_ids, cards

    def finalize(
        self, plan: PhysicalPlan, counters: WorkCounters, result_ids: np.ndarray
    ) -> tuple[WorkCounters, np.ndarray | None, dict[int, float] | None]:
        """Aggregation/projection phase over the selected rows."""
        table = self._db.table(plan.scan.table)
        if plan.group_by is not None:
            counters.group_rows += len(result_ids)
            points = table.points(plan.group_by.column)[result_ids]
            weight = 1.0
            if table.sample_fraction:
                weight = 1.0 / table.sample_fraction
            bins = bin_counts(points, plan.group_by, weight=weight)
            counters.output_rows += len(bins)
            return counters, None, bins

        counters.output_rows += len(result_ids)
        return counters, table.to_base_ids(result_ids), None

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------
    def _run_scan(
        self, plan: PhysicalPlan, access: EngineAccess
    ) -> tuple[np.ndarray, ScanCardinalities, tuple[int, ...]]:
        """Compute the scan's rows and stage cardinalities (no charging).

        Returns ``(local candidate ids, cardinalities, per-path entry
        counts)``; the caller charges via :func:`charge_scan`.
        """
        scan = plan.scan
        table = self._db.table(scan.table)

        if scan.is_full_scan:
            if not scan.residual:
                ids = np.arange(table.n_rows, dtype=np.int64)
            else:
                rowsets = [
                    access.match_rowset(scan.table, predicate)
                    for predicate in scan.residual
                ]
                ids = intersect_all(rowsets).ids
            return ids, ScanCardinalities(final_len=int(len(ids))), ()

        candidates: RowSet | None = None
        rowset_lens: list[int] = []
        cand_lens: list[int] = []
        path_entries: list[int] = []
        for path in scan.access:
            lookup = access.index_lookup(scan.table, path.predicate)
            path_entries.append(int(lookup.entries_scanned))
            rowset = access.access_rowset(scan.table, path.predicate, lookup)
            rowset_lens.append(len(rowset))
            if candidates is None:
                candidates = rowset
            else:
                candidates = candidates.intersect(rowset)
            cand_lens.append(len(candidates))
        assert candidates is not None
        if scan.residual:
            for predicate in scan.residual:
                matched = access.match_rowset(scan.table, predicate)
                candidates = candidates.intersect(matched)
        cards = ScanCardinalities(
            path_rowset_lens=tuple(rowset_lens),
            path_cand_lens=tuple(cand_lens),
            final_len=int(len(candidates)),
        )
        return candidates.ids, cards, tuple(path_entries)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def _run_join(
        self,
        plan: PhysicalPlan,
        outer_table,
        outer_ids: np.ndarray,
        counters: WorkCounters,
        access: EngineAccess,
    ) -> np.ndarray:
        join = plan.join
        assert join is not None
        inner = self._db.table(join.inner_table)
        sorted_keys, permutation = self._db.key_lookup(
            join.inner_table, join.right_column
        )

        fk_values = outer_table.numeric(join.left_column)[outer_ids]
        positions = np.searchsorted(sorted_keys, fk_values)
        positions = np.clip(positions, 0, len(sorted_keys) - 1)
        matched = sorted_keys[positions] == fk_values
        inner_rows = permutation[positions]

        if join.inner_predicates:
            kept = intersect_all(
                access.match_rowset(join.inner_table, predicate)
                for predicate in join.inner_predicates
            )
            matched &= kept.mask[inner_rows]
            inner_kept = float(len(kept))
        else:
            inner_kept = float(inner.n_rows)

        n_outer = len(outer_ids)
        if join.method == "nestloop":
            counters.join_probe_rows += n_outer
            counters.residual_checks += n_outer * len(join.inner_predicates)
        elif join.method == "hash":
            counters.seq_rows += inner.n_rows
            counters.join_build_rows += inner_kept
            counters.join_probe_rows += n_outer
        elif join.method == "merge":
            counters.seq_rows += inner.n_rows
            counters.sort_work += n_outer * math.log2(n_outer + 2)
            counters.sort_work += inner_kept * math.log2(inner_kept + 2)
        else:  # pragma: no cover - validated at plan construction
            raise ExecutionError(f"unknown join method {join.method!r}")

        return outer_ids[matched]
