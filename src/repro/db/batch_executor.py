"""Batch-vectorized plan execution with shared scan / index / binning work.

``BatchExecutor.execute`` answers a whole batch of (already rewritten)
queries with the exact observable behaviour of ``[db.execute(q) for q in
queries]`` — bit-identical result rows and bins, work counters, virtual
``base_ms``/``execution_ms``, per-request engine-cache hit/miss deltas, and
post-batch cache state — while doing the underlying computation once per
*distinct* piece of work instead of once per request:

* **fused index probes** — every distinct index probe the batch needs is
  computed in one vectorized :meth:`~repro.db.indexes.base.Index.
  lookup_batch` sweep per (table, column) group;
* **shared predicate row sets** — each distinct predicate's RowSet is
  materialized once and shared, so its bitmap (the O(1)-probe intersection
  representation) is built at most once per batch and lives in the batch:
  the match cache keeps only the compact one-array form;
* **scan memoization** — requests whose plans share the same (scan, join,
  limit) pipeline reuse the selected rows, their work counters, their
  base-table row ids and their histograms (one :class:`ScanResult`).  A
  pipeline computed again in a later batch is promoted into the engine's
  byte-bounded ``scan_memo`` (admission on second sighting), so a repeated
  view skips the intersect / binning / id-mapping math across batches too;
* **fused aggregation** — all histograms over the same (table, BIN_ID cell
  grid) are counted in one ``bin_counts_many`` sweep against the table's
  shared :class:`~repro.db.binning.BinLayout`.

The engine's observable state stays identical because the *instrumented
cache protocol is replayed, not bypassed*: for every request, in scheduled
order, the executor issues the same cache get/put sequence the sequential
path would (``_BatchAccess``), substituting precomputed values only where
the sequential path would have computed them on a miss.  Profile effects
(buffer-cache warming, instability, noise) are applied per request in order
through the same ``Database._apply_profile_effects``, so even the RNG stream
is consumed identically.

The sharing half is reusable on its own: :meth:`BatchExecutor.precompute`
fills the batch's probes for a list of plans and :attr:`BatchExecutor.access`
serves them through the replayed protocol.  ``execute`` is one caller; the
shard worker (:class:`~repro.db.sharding.ShardEngine`) is the other — it
scans its slice through the same ``access`` and bins the rows itself.

When the engine profile can ignore hints (``hint_ignore_prob > 0`` with
hinted queries), the obey/noise RNG draws interleave per request; the
executor then falls back to a fully in-order pipeline that keeps all the
sharing memos but skips the phase-separated fused sweeps — still
bit-identical, for every profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import SchemaError
from .binning import bin_counts_many
from .cost_model import WorkCounters
from .executor import EngineAccess, ExecutionResult
from .plans import PhysicalPlan
from .query import BinGroupBy, SelectQuery
from .rowset import RowSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .indexes import IndexLookup


@dataclass
class BatchSharingStats:
    """How much work one ``execute_batch`` call shared across its requests."""

    n_queries: int = 0
    #: Whether the phase-separated fused path ran (vs the in-order fallback
    #: used when hint-ignore RNG draws must interleave with execution).
    fused: bool = False
    #: Distinct (table, access-path signature) groups in the batch.
    n_plan_groups: int = 0
    #: Distinct (scan, join, limit) pipelines actually executed.
    n_distinct_scans: int = 0
    #: Requests whose row selection came from a scan memo: the batch's own,
    #: or the engine's ``scan_memo`` of pipelines earlier batches computed.
    shared_scans: int = 0
    #: Distinct index probes computed for this batch ...
    n_probes_computed: int = 0
    #: ... and how many vectorized lookup_batch sweeps computed them.
    n_probe_sweeps: int = 0
    #: Distinct predicate row sets materialized for this batch.
    n_matches_computed: int = 0
    #: Fused (table, bin grid) histogram sweeps ...
    n_bin_sweeps: int = 0
    #: ... distinct histograms they produced ...
    n_bin_results: int = 0
    #: ... and aggregate requests served by reusing one of them.
    shared_bins: int = 0

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "fused": self.fused,
            "n_plan_groups": self.n_plan_groups,
            "n_distinct_scans": self.n_distinct_scans,
            "shared_scans": self.shared_scans,
            "n_probes_computed": self.n_probes_computed,
            "n_probe_sweeps": self.n_probe_sweeps,
            "n_matches_computed": self.n_matches_computed,
            "n_bin_sweeps": self.n_bin_sweeps,
            "n_bin_results": self.n_bin_results,
            "shared_bins": self.shared_bins,
        }

    def merge(self, other: "BatchSharingStats") -> None:
        """Accumulate another batch's counters (service-level aggregation)."""
        self.n_queries += other.n_queries
        self.fused = self.fused or other.fused
        self.n_plan_groups += other.n_plan_groups
        self.n_distinct_scans += other.n_distinct_scans
        self.shared_scans += other.shared_scans
        self.n_probes_computed += other.n_probes_computed
        self.n_probe_sweeps += other.n_probe_sweeps
        self.n_matches_computed += other.n_matches_computed
        self.n_bin_sweeps += other.n_bin_sweeps
        self.n_bin_results += other.n_bin_results
        self.shared_bins += other.shared_bins


class _BatchAccess(EngineAccess):
    """Protocol-faithful engine access with batch-level value sharing.

    Drives the database's instrumented caches through exactly the get/put
    sequence ``Database.match_rowset`` / ``Database.index_lookup`` would,
    but on a miss consults the batch's precomputed values before falling
    back to the per-predicate compute path.  Access-path and match row sets
    are shared across the batch so each predicate's bitmap materializes at
    most once; those bitmaps stay here, never in the engine's caches.
    """

    def __init__(self, database: "Database", stats: BatchSharingStats) -> None:
        super().__init__(database)
        self.lookup_values: dict[tuple, "IndexLookup"] = {}
        #: The batch's match sets, with their bitmaps (``RowSet.with_mask``).
        self.match_values: dict[tuple, RowSet] = {}
        self._access_rowsets: dict[tuple, RowSet] = {}
        self._stats = stats

    def index_lookup(self, table_name: str, predicate) -> "IndexLookup":
        key = (table_name, predicate.key())
        cached = self._db._lookup_cache.get(key)
        if cached is not None:
            return cached
        lookup = self.lookup_values.get(key)
        if lookup is None:
            index = self._db.index(table_name, predicate.column)
            if index is None or not index.supports(predicate):
                raise SchemaError(
                    f"no index supports predicate {predicate!r} on {table_name!r}"
                )
            lookup = index.lookup(predicate)
            self._stats.n_probes_computed += 1
        self._db._lookup_cache.put(key, lookup, tags=[table_name])
        return lookup

    def match_rowset(self, table_name: str, predicate) -> RowSet:
        key = (table_name, predicate.key())
        cached = self._db._match_cache.get(key)
        rowset = self.match_values.get(key)
        if cached is not None:
            return cached if rowset is None else rowset
        if rowset is None:
            rowset = self._db._compute_match(table_name, predicate).with_mask()
            self.match_values[key] = rowset
            self._stats.n_matches_computed += 1
        self._db._cache_match(key, rowset)
        return rowset

    def access_rowset(self, table_name: str, predicate, lookup) -> RowSet:
        key = (table_name, predicate.key())
        rowset = self._access_rowsets.get(key)
        if rowset is None:
            # Materialize the bitmap once for the whole batch: every scan
            # intersecting this access path then takes the O(rows) bitmap
            # strategy instead of an O(k log k) sorted merge.  The result of
            # any intersect strategy is identical (the RowSet invariant), so
            # this only moves work, never changes counters or rows.
            rowset = RowSet.from_ids(
                lookup.row_ids, self._db.table(table_name).n_rows
            ).with_mask()
            self._access_rowsets[key] = rowset
        return rowset


#: Estimated bytes of one histogram bin (dict slot, int key, float value)
#: and of a :class:`ScanResult`'s fixed part (counters dict, the object).
_BIN_BYTES = 96
_RESULT_BYTES = 512


def _read_only(ids: np.ndarray) -> np.ndarray:
    """A read-only view of ``ids``: memoized arrays are handed to many
    requests, so a caller writing into one must fail, not corrupt them."""
    if not ids.flags.writeable:
        return ids
    view = ids.view()
    view.setflags(write=False)
    return view


@dataclass(eq=False, slots=True)
class ScanResult:
    """One (scan, join, limit) pipeline's row selection and what the
    aggregation / projection tail derived from it — pure functions of the
    plan and the tables it reads.  Shared by every request of a batch with
    that pipeline, and kept across batches in the engine's ``scan_memo``."""

    key: tuple
    #: The scan's ``WorkCounters`` (as a dict; each request gets a copy).
    counters: dict[str, float]
    #: Selected rows in the scanned table's local id space (read-only).
    local_ids: np.ndarray
    #: ``local_ids`` in base-table id space, once a row query needed it.
    base_ids: np.ndarray | None = None
    #: Histogram per BIN_ID grid an aggregate over this pipeline asked for.
    bins: dict[BinGroupBy, dict[int, float]] = field(default_factory=dict)

    @property
    def tags(self) -> list[str]:
        scan, join, _limit = self.key
        return [scan.table] if join is None else [scan.table, join.inner_table]

    @property
    def nbytes(self) -> int:
        size = _RESULT_BYTES + self.local_ids.nbytes
        if self.base_ids is not None and self.base_ids is not self.local_ids:
            size += self.base_ids.nbytes
        for bins in self.bins.values():
            size += _BIN_BYTES * len(bins)
        return size


@dataclass
class _Pending:
    """Per-request execution state carried between pipeline phases."""

    query: SelectQuery
    obeyed: bool = True
    plan: PhysicalPlan | None = None
    plan_cached: bool = False
    scan_key: tuple | None = None
    scan: ScanResult | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    result: ExecutionResult | None = None


class BatchExecutor:
    """Executes a batch of queries with cross-request work sharing."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        self._stats = BatchSharingStats()
        #: The batch's engine access; the shard worker scans through it too.
        self.access = _BatchAccess(database, self._stats)
        self._scans: dict[tuple, ScanResult] = {}
        self._bins_served: set[tuple[ScanResult, BinGroupBy]] = set()
        #: Results bound for (or taken from) the engine's scan memo, mapped
        #: to whether this batch must (re)store them: admitted ones, and memo
        #: entries the batch added a histogram or base ids to.
        self._memoized: dict[ScanResult, bool] = {}

    # ------------------------------------------------------------------
    def execute(
        self, queries: Sequence[SelectQuery]
    ) -> tuple[list[ExecutionResult], BatchSharingStats]:
        """Execute ``queries`` in order; see the module docstring for the
        equivalence contract.  Returns (results, sharing statistics)."""
        pending = [_Pending(query=query) for query in queries]
        self._stats.n_queries = len(pending)
        if not pending:
            return [], self._stats

        profile = self._db.profile
        can_fuse = profile.hint_ignore_prob <= 0 or all(
            item.query.hints is None for item in pending
        )
        if can_fuse:
            self._stats.fused = True
            for item in pending:
                self._plan_one(item)
            self.precompute([item.plan for item in pending])
            for item in pending:
                self._scan_one(item)
            self._fused_bins(pending)
            for item in pending:
                self._finish_one(item)
        else:
            # Obey-hint draws interleave with noise draws per request, so
            # the whole pipeline runs request-at-a-time (memos still share).
            for item in pending:
                self._draw_obeyed(item)
                self._plan_one(item)
                self._scan_one(item)
                self._finish_one(item)
        self._count_plan_groups(pending)
        self._store_memoized()
        results = [item.result for item in pending]
        assert all(result is not None for result in results)
        return results, self._stats  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Pipeline phases (each mirrors one slice of Database.execute)
    # ------------------------------------------------------------------
    def _draw_obeyed(self, item: _Pending) -> None:
        profile = self._db.profile
        if item.query.hints is not None and profile.hint_ignore_prob > 0:
            item.obeyed = self._db._rng.random() >= profile.hint_ignore_prob

    def _plan_one(self, item: _Pending) -> None:
        db = self._db
        before = db._cache_counts()
        item.plan_cached = (item.query.key(), item.obeyed) in db._plan_cache
        item.plan = db._planned(item.query, item.obeyed)
        item.scan_key = (item.plan.scan, item.plan.join, item.plan.limit)
        hits, misses = db._cache_delta(before)
        item.cache_hits += hits
        item.cache_misses += misses

    def _scan_one(self, item: _Pending) -> None:
        db = self._db
        plan, key = item.plan, item.scan_key
        assert plan is not None and key is not None
        before = db._cache_counts()
        result = self._scans.get(key)
        if result is None:
            result = db._scan_memo.get(key)
            if result is not None:
                self._scans[key] = result
                self._memoized[result] = False
        if result is not None:
            self._replay_accesses(plan)
            self._stats.shared_scans += 1
        else:
            counters, local_ids, _cards = db._executor.scan_rows(
                plan, access=self.access
            )
            result = ScanResult(key, counters.as_dict(), _read_only(local_ids))
            self._scans[key] = result
            self._stats.n_distinct_scans += 1
            if db._admits_scan(result):
                self._memoized[result] = True
        item.scan = result
        hits, misses = db._cache_delta(before)
        item.cache_hits += hits
        item.cache_misses += misses

    def _replay_accesses(self, plan: PhysicalPlan) -> None:
        """Issue the cache gets a memo-hit scan would have issued anyway.

        This is what keeps per-request hit/miss deltas and LRU state
        bit-identical to sequential execution: the engine caches see the
        same operation sequence, only the pure row-selection math is reused.
        """
        scan = plan.scan
        if not scan.is_full_scan:
            for path in scan.access:
                self.access.index_lookup(scan.table, path.predicate)
        for predicate in scan.residual:
            self.access.match_rowset(scan.table, predicate)
        if plan.join is not None:
            for predicate in plan.join.inner_predicates:
                self.access.match_rowset(plan.join.inner_table, predicate)

    def _grew(self, result: ScanResult) -> None:
        """``result`` gained a histogram or base ids: a memo entry must be
        stored again, so the memo's byte count covers what it holds."""
        if result in self._memoized:
            self._memoized[result] = True

    def _store_memoized(self) -> None:
        memo = self._db._scan_memo
        for result, dirty in self._memoized.items():
            if dirty:
                memo.put(result.key, result, tags=result.tags)

    def _fused_bins(self, pending: list[_Pending]) -> None:
        """One histogram sweep per (table, bin grid) over distinct row sets."""
        groups: dict[tuple[str, BinGroupBy], dict[ScanResult, None]] = {}
        for item in pending:
            plan, result = item.plan, item.scan
            assert plan is not None and result is not None
            if plan.group_by is None or plan.group_by in result.bins:
                continue
            groups.setdefault((plan.scan.table, plan.group_by), {})[result] = None
        for (table_name, group_by), members in groups.items():
            layout, weight = self._weighted_layout(table_name, group_by)
            histograms = bin_counts_many(
                layout, [result.local_ids for result in members], weight=weight
            )
            for result, bins in zip(members, histograms):
                result.bins[group_by] = bins
                self._grew(result)
            self._stats.n_bin_sweeps += 1
            self._stats.n_bin_results += len(members)

    def _weighted_layout(self, table_name: str, group_by: BinGroupBy):
        """The (layout, sample-scale weight) pair both binning paths share —
        one derivation so the fused and fallback histograms cannot drift."""
        table = self._db.table(table_name)
        weight = 1.0
        if table.sample_fraction:
            weight = 1.0 / table.sample_fraction
        return self._db.bin_layout(table_name, group_by), weight

    def _bins_for(self, item: _Pending) -> dict[int, float]:
        plan, result = item.plan, item.scan
        assert plan is not None and plan.group_by is not None and result is not None
        group_by = plan.group_by
        bins = result.bins.get(group_by)
        if bins is None:
            layout, weight = self._weighted_layout(plan.scan.table, group_by)
            bins = bin_counts_many(layout, [result.local_ids], weight=weight)[0]
            result.bins[group_by] = bins
            self._grew(result)
            self._stats.n_bin_sweeps += 1
            self._stats.n_bin_results += 1
        served = (result, group_by)
        if served in self._bins_served:
            self._stats.shared_bins += 1
        else:
            self._bins_served.add(served)
        return bins

    def _finish_one(self, item: _Pending) -> None:
        """Aggregation/projection, cost conversion, and profile effects —
        the tail of ``Database.execute``, per request in batch order."""
        db = self._db
        plan, result = item.plan, item.scan
        assert plan is not None and result is not None
        counters = WorkCounters(**result.counters)
        if plan.group_by is not None:
            counters.group_rows += len(result.local_ids)
            bins = self._bins_for(item)
            counters.output_rows += len(bins)
            row_ids: np.ndarray | None = None
            bins = dict(bins)
        else:
            counters.output_rows += len(result.local_ids)
            row_ids = result.base_ids
            if row_ids is None:
                table = db.table(plan.scan.table)
                row_ids = _read_only(table.to_base_ids(result.local_ids))
                result.base_ids = row_ids
                self._grew(result)
            bins = None
        base_ms = db.cost_model.time_ms(counters)
        execution_ms = db._apply_profile_effects(base_ms, plan)
        item.result = ExecutionResult(
            plan=plan,
            counters=counters,
            base_ms=base_ms,
            execution_ms=execution_ms,
            row_ids=row_ids,
            bins=bins,
            obeyed_hints=item.obeyed,
            cache_hits=item.cache_hits,
            cache_misses=item.cache_misses,
            plan_cached=item.plan_cached,
        )

    # ------------------------------------------------------------------
    # Fused precompute
    # ------------------------------------------------------------------
    def precompute(self, plans: Sequence[PhysicalPlan]) -> None:
        """Compute every index probe / predicate row set the plans will miss
        on, one vectorized sweep per (table, column) group.

        Presence checks use :meth:`InstrumentedCache.peek` so the
        instrumented counters stay untouched; the values are injected later
        through the replayed get/put protocol in :class:`_BatchAccess`.
        """
        db = self._db
        need_lookups: dict[tuple, tuple[str, object]] = {}
        need_matches: dict[tuple, tuple[str, object]] = {}
        for scan, join in dict.fromkeys((plan.scan, plan.join) for plan in plans):
            if not scan.is_full_scan:
                for path in scan.access:
                    key = (scan.table, path.predicate.key())
                    if key not in need_lookups and db._lookup_cache.peek(key) is None:
                        need_lookups[key] = (scan.table, path.predicate)
            for predicate in scan.residual:
                key = (scan.table, predicate.key())
                if key not in need_matches and db._match_cache.peek(key) is None:
                    need_matches[key] = (scan.table, predicate)
            if join is not None:
                for predicate in join.inner_predicates:
                    key = (join.inner_table, predicate.key())
                    if key not in need_matches and db._match_cache.peek(key) is None:
                        need_matches[key] = (join.inner_table, predicate)

        # One fused sweep per (table, column) index answers both the lookup
        # needs and the index-backed match needs, each distinct probe once:
        # a match whose probe the batch also needs as a lookup, or that the
        # lookup cache already holds, shares that probe's id array.
        # Index-less matches fall back to exact per-predicate masks.
        sweeps: dict[tuple[str, str], dict[tuple, object]] = {}
        for key, (table_name, predicate) in need_lookups.items():
            sweeps.setdefault((table_name, predicate.column), {})[key] = predicate
        probed_matches: list[tuple] = []
        for key, (table_name, predicate) in need_matches.items():
            index = db.index(table_name, predicate.column)
            if index is None or not index.supports(predicate):
                self.access.match_values[key] = predicate.matching_rowset(
                    db.table(table_name)
                )
                self._stats.n_matches_computed += 1
                continue
            probed_matches.append(key)
            if key not in need_lookups and db._lookup_cache.peek(key) is None:
                sweeps.setdefault((table_name, predicate.column), {})[key] = predicate
        probes: dict[tuple, "IndexLookup"] = {}
        for (table_name, column), predicates in sweeps.items():
            index = db.index(table_name, column)
            assert index is not None
            lookups = index.lookup_batch(list(predicates.values()))
            probes.update(zip(predicates, lookups))
            self._stats.n_probe_sweeps += 1
        for key in need_lookups:
            self.access.lookup_values[key] = probes[key]
            self._stats.n_probes_computed += 1
        for key in probed_matches:
            lookup = probes.get(key)
            if lookup is None:
                lookup = db._lookup_cache.peek(key)
            n_rows = db.table(key[0]).n_rows
            self.access.match_values[key] = RowSet.from_ids(
                lookup.row_ids, n_rows
            ).with_mask()
            self._stats.n_matches_computed += 1

    def _count_plan_groups(self, pending: list[_Pending]) -> None:
        groups = set()
        for item in pending:
            plan = item.plan
            assert plan is not None
            signature = tuple(
                (path.index_kind, path.predicate.column) for path in plan.scan.access
            )
            groups.add((plan.scan.table, signature))
        self._stats.n_plan_groups = len(groups)
