"""Row-range partitioning substrate for sharded serving.

The sharded serving layer (``repro.serving.sharded``, DESIGN.md §4.3.1)
splits one logical :class:`~repro.db.database.Database` into N *shard
engines*, each running in its own worker process.  There is one
partition: every table is sliced into N contiguous, ascending row ranges.
This module owns the engine-level halves of that design:

* :class:`ShardSpec` — a pickle-safe description of one shard (its table
  slices, the columns to index, profile and cost model) from which a
  worker process warm-starts its engine;
* :func:`build_shard_specs` / :func:`rebuild_shard_spec` /
  :func:`reslice_for_sync` — slice the router's live catalog for a first
  spawn, a respawn at the current fleet arity, or a coherence sync;
* :class:`ShardEngine` — the worker-side executor: scans its slice for a
  batch of canonical plans through the engine's one batch kernel
  (:class:`~repro.db.batch_executor.BatchExecutor`'s ``precompute`` and
  ``access``), adds fused raw-integer BIN_ID histogram sweeps, and reports
  compact :class:`ShardQueryReport`s;
* :func:`merge_scatter` — the router-side gather: reconstructs the
  *canonical single-engine* work counters, result rows, and bins from the
  per-shard reports.

The scatter/gather merge contract
---------------------------------

Virtual time must stay a function of the plan and the whole-table data
(DESIGN.md §3) no matter how many shards physically produced the answer.
Shards therefore never ship *charged* counters — they ship the
:class:`~repro.db.executor.ScanCardinalities` the unified kernel
(``Executor.scan_rows``) emits, the stage sizes every charge derives from:

* per access path: the size of the path's match set on the shard and the
  size of the running intersection (both partition across row ranges, so
  their sums are exactly the whole-table sizes);
* the final candidate count, the global-id result rows (slices are
  ascending, so shard-order concatenation *is* the single-engine row
  order), and — for aggregates — raw integer bin counts (bin ids come
  from a fixed global grid origin, so partial histograms sum exactly).

The router then replays the executor's accounting —
:func:`~repro.db.executor.charge_scan`, the same function the kernel
charges with — over the summed cardinalities: ``index_probes``/
``index_entries`` are charged from the router's own full indexes via
:meth:`~repro.db.indexes.base.Index.entries_for` (shard-local grids have
shard-local cell geometry, so their entry counts are physical, not
canonical), LIMIT scaling/truncation is applied to the merged result
exactly as ``Executor.scan_rows`` would, and weighted bins multiply the
summed integer counts by the sample weight once — bit-for-bit the float
the single engine produces.  Queries a scatter cannot reproduce
canonically (joins; hint-ignoring executions) are routed to the full
engine instead — the serving layer's fallback path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import SchemaError
from .batch_executor import BatchExecutor
from .binning import bin_counts, bin_counts_many
from .cost_model import CostModel, WorkCounters
from .database import Database, SimProfile
from .executor import ScanCardinalities, charge_scan
from .plans import PhysicalPlan, ScanPlan
from .table import Table


def scatter_eligible(plan: PhysicalPlan) -> bool:
    """Whether a plan can be scattered across row-range shards.

    Joins need the whole inner table on every shard to keep the method
    counters canonical; they run on the router's full engine instead.
    """
    return plan.join is None


# ----------------------------------------------------------------------
# Shard specs
# ----------------------------------------------------------------------
@dataclass
class ShardSpec:
    """Everything a worker process needs to warm-start one shard engine.

    The spec is deliberately plain data — numpy-backed :class:`Table`
    objects, an :class:`SimProfile`, a :class:`CostModel`, and index
    column names — so it pickles across a process boundary regardless of
    start method.  Workers always run the *deterministic* profile: profile
    effects (noise, instability, buffer cache) are charged once, by the
    router engine, on the merged result.
    """

    shard_id: int
    n_shards: int
    tables: list[Table]
    #: table name -> columns to index (mirrors the router's catalog).
    indexed_columns: dict[str, tuple[str, ...]]
    profile: SimProfile = field(default_factory=SimProfile.deterministic)
    cost_model: CostModel = field(default_factory=CostModel)

    def build_engine(self) -> Database:
        """Construct the shard's engine (tables + indexes, no statistics)."""
        database = Database(profile=self.profile, cost_model=self.cost_model)
        for table in self.tables:
            database.add_table(table, analyze=False)
        for table_name, columns in self.indexed_columns.items():
            for column in columns:
                database.create_index(table_name, column)
        return database


def slice_bounds(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, ascending, exhaustive row ranges for ``n_shards`` slices."""
    return [
        (shard * n_rows // n_shards, (shard + 1) * n_rows // n_shards)
        for shard in range(n_shards)
    ]


def slice_table(table: Table, start: int, stop: int) -> Table:
    """One contiguous row-range slice of a table, keeping its name.

    The slice maps its local rows back to *base-table* row ids (via the
    sliced ``base_row_ids``), so worker-side results come out directly in
    the id space the single engine reports.
    """
    ids = np.arange(start, stop, dtype=np.int64)
    return table.select_rows(ids, table.name)


def build_shard_specs(database: Database, n_shards: int) -> list[ShardSpec]:
    """Partition a database's catalog into ``n_shards`` shard specs."""
    if n_shards < 1:
        raise SchemaError(f"n_shards must be at least 1, got {n_shards}")
    return [
        rebuild_shard_spec(database, shard, shard, n_shards)
        for shard in range(n_shards)
    ]


def rebuild_shard_spec(
    database: Database, shard_id: int, rank: int, n_active: int
) -> ShardSpec:
    """One fresh shard spec from the live catalog (first spawn and respawn).

    A respawned worker must rejoin *bit-coherent* with the surviving
    fleet: it takes slice ``rank`` of an ``n_active``-way partition of the
    router's current tables (``rank`` is the slot's position among the
    fleet's active shards, which may be smaller than the original arity
    after breaker retirements).  Building from the live catalog collapses
    the spec + every ``sync_table`` replay the dead worker missed into one
    warm start.
    """
    names = sorted(database.table_names)
    tables = []
    for name in names:
        table = database.table(name)
        start, stop = slice_bounds(table.n_rows, n_active)[rank]
        tables.append(slice_table(table, start, stop))
    return ShardSpec(
        shard_id=shard_id,
        n_shards=n_active,
        tables=tables,
        indexed_columns={
            name: tuple(sorted(database.indexes_for(name))) for name in names
        },
        cost_model=database.cost_model,
    )


def reslice_for_sync(database: Database, table_name: str, n_shards: int) -> list[Table]:
    """Fresh per-shard row slices of one (possibly mutated) table."""
    table = database.table(table_name)
    return [
        slice_table(table, start, stop)
        for start, stop in slice_bounds(table.n_rows, n_shards)
    ]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
@dataclass
class ShardQueryReport:
    """What one shard reports back for one scattered plan."""

    #: The stage cardinalities the unified kernel emitted for this shard's
    #: slice of the scan.
    cards: ScanCardinalities
    #: Matching rows in *base-table* id space, ascending (None when the
    #: query aggregates and no LIMIT can truncate it).
    row_ids: np.ndarray | None = None
    #: Raw integer bin counts (aggregates without LIMIT).
    raw_bins: dict[int, int] | None = None


@dataclass
class ShardBatchReply:
    """One shard's answer to one scattered batch."""

    reports: list[ShardQueryReport]
    #: Physical work this shard actually performed (ShardStats, not virtual
    #: accounting — shard-local index geometry differs from canonical).
    physical_counters: WorkCounters
    cache_hits: int
    cache_misses: int
    wall_s: float


class ShardEngine:
    """Worker-side engine: executes scattered batches against shard data
    through a per-batch :class:`~repro.db.batch_executor.BatchExecutor`."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.database = spec.build_engine()

    # ------------------------------------------------------------------
    def execute(self, plans: Sequence[PhysicalPlan]) -> ShardBatchReply:
        """Scan this shard's slice for a batch of canonical joinless plans.

        Each distinct scan runs once, through the batch's shared probes,
        with the LIMIT deferred to the gather; physical counters charge
        the work actually performed.
        """
        started = time.perf_counter()
        database = self.database
        before = database._cache_counts()
        batch = BatchExecutor(database)
        batch.precompute(plans)
        physical = WorkCounters()
        scanned: dict[ScanPlan, tuple] = {}
        scans = []
        for plan in plans:
            assert plan.join is None, "scattered plans must be joinless"
            scan = scanned.get(plan.scan)
            if scan is None:
                scan = database._executor.scan_rows(
                    plan, access=batch.access, apply_limit=False
                )
                scanned[plan.scan] = scan
                physical = physical + scan[0]
            report, local_ids = self._report_for(plan, scan)
            scans.append((plan, report, local_ids))
        self._fused_partial_bins(scans)

        hits, misses = database._cache_delta(before)
        return ShardBatchReply(
            reports=[report for _plan, report, _ids in scans],
            physical_counters=physical,
            cache_hits=hits,
            cache_misses=misses,
            wall_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def sync_table(self, table: Table, indexed_columns: tuple[str, ...]) -> None:
        """Install a fresh copy/slice of a table shipped by the router.

        The cross-shard coherence path: a catalog invalidation on the
        router engine re-slices the table and every worker replaces its
        copy, rebuilds the listed indexes, and drops derived cache state.
        """
        database = self.database
        if not database.has_table(table.name):
            database.add_table(table, analyze=False)
        else:
            database.replace_table(table)
        existing = database.indexes_for(table.name)
        for column in indexed_columns:
            if column not in existing:
                database.create_index(table.name, column)

    def cache_stats(self):
        return self.database.cache_stats()

    # ------------------------------------------------------------------
    def _report_for(
        self, plan: PhysicalPlan, scanned: tuple
    ) -> tuple[ShardQueryReport, np.ndarray]:
        """Wrap one (possibly shared) kernel scan as this plan's report."""
        _counters, local_ids, cards = scanned
        table = self.database.table(plan.scan.table)
        ship_ids = plan.group_by is None or plan.limit is not None
        shipped = None
        if ship_ids:
            # The merged result keeps at most ``limit`` rows, and every
            # shard's slice is ascending in global-id space — so no shard
            # ever contributes more than ``limit`` of its own; don't pay
            # transport for rows the router would discard.
            kept = local_ids if plan.limit is None else local_ids[: plan.limit]
            shipped = table.to_base_ids(kept)
        report = ShardQueryReport(cards=cards, row_ids=shipped)
        return report, local_ids

    def _fused_partial_bins(self, scans) -> None:
        """Raw integer bin counts for un-LIMITed aggregates, one sweep per
        (table, bin grid) group — the shard-side half of "bin counts sum"."""
        groups: dict[tuple, tuple[object, list]] = {}
        for plan, report, local_ids in scans:
            group_by = plan.group_by
            if group_by is None or plan.limit is not None:
                continue
            key = (
                plan.scan.table,
                group_by.column,
                group_by.cell_x,
                group_by.cell_y,
            )
            _group_by, members = groups.setdefault(key, (group_by, []))
            members.append((report, local_ids))
        for (table_name, _column, _cx, _cy), (group_by, members) in groups.items():
            layout = self.database.bin_layout(table_name, group_by)
            histograms = bin_counts_many(
                layout, [ids for _report, ids in members], weight=1.0
            )
            for (report, _ids), histogram in zip(members, histograms):
                report.raw_bins = {
                    bin_id: int(count) for bin_id, count in histogram.items()
                }


# ----------------------------------------------------------------------
# Router-side gather
# ----------------------------------------------------------------------
def merge_scatter(
    database: Database,
    plan: PhysicalPlan,
    reports: Sequence[ShardQueryReport],
) -> tuple[WorkCounters, np.ndarray | None, dict[int, float] | None]:
    """Merge per-shard reports into the canonical single-engine outcome.

    ``database`` is the router's full engine: canonical index work is
    charged — via the kernel's own :func:`charge_scan` over the summed
    shard cardinalities — from its whole-table indexes, and LIMIT-truncated
    aggregates are finalized against its base-table points (bounded by the
    LIMIT).  Returns the exact ``(counters, row_ids, bins)`` the full engine's
    executor would produce for ``plan`` under the deterministic profile.
    """
    assert plan.join is None, "join plans are not scatter-eligible"
    counters = WorkCounters()
    table = database.table(plan.scan.table)

    cards = ScanCardinalities.merge([report.cards for report in reports])
    path_entries = []
    for path in plan.scan.access:
        index = database.index(plan.scan.table, path.predicate.column)
        assert index is not None, "canonical plan references a missing index"
        path_entries.append(index.entries_for(path.predicate))
    charge_scan(counters, plan.scan, table.n_rows, tuple(path_entries), cards)

    total = cards.final_len
    kept = total
    if plan.limit is not None and total > plan.limit:
        counters = counters.scaled(plan.limit / total)
        kept = plan.limit

    merged_ids: np.ndarray | None = None
    if plan.group_by is None or plan.limit is not None:
        parts = [
            report.row_ids
            for report in reports
            if report.row_ids is not None and len(report.row_ids)
        ]
        merged_ids = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )[:kept]

    if plan.group_by is not None:
        counters.group_rows += kept
        weight = 1.0
        if table.sample_fraction:
            weight = 1.0 / table.sample_fraction
        if plan.limit is None:
            raw: dict[int, int] = {}
            for report in reports:
                assert report.raw_bins is not None
                for bin_id, count in report.raw_bins.items():
                    raw[bin_id] = raw.get(bin_id, 0) + count
            bins = {
                bin_id: float(count) * weight
                for bin_id, count in sorted(raw.items())
            }
        else:
            # A LIMIT may truncate the grouped rows; re-bin the (bounded by
            # the LIMIT) kept rows against the base table's points.
            assert merged_ids is not None
            base_name = table.base_table or table.name
            points = database.table(base_name).points(plan.group_by.column)
            bins = bin_counts(points[merged_ids], plan.group_by, weight=weight)
        counters.output_rows += len(bins)
        return counters, None, bins

    counters.output_rows += kept
    return counters, merged_ids, None
