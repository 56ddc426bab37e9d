"""The database: catalog, optimizer, executor, and engine behaviour profiles.

This is the black-box "backend database" of the paper's architecture.  The
middleware only ever talks to it through :meth:`Database.execute` (run a
query, hints honoured with high probability) and — for the oracle QTE and
experiment bookkeeping — :meth:`Database.true_execution_time_ms`.

Simulated-engine profiles capture the behavioural differences the paper
observed:

* :meth:`SimProfile.postgres` — small execution-time noise, hints almost
  always honoured, no buffer-cache modelling.  The optimizer's selectivity
  misestimates (see ``statistics.py``) are the dominant failure source.
* :meth:`SimProfile.commercial` — Section 7.6's "complex behaviours":
  buffer-cache effects make repeated access patterns much cheaper, a plan
  can sporadically run far slower than its cost (dynamic plan change), and
  hints are ignored more often.  A selectivity-only analytic QTE becomes
  wildly inaccurate here, exactly as reported.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .batch_executor import BatchExecutor, BatchSharingStats, ScanResult
from .binning import BinLayout, build_bin_layout
from .caches import CacheStats, CacheStatsReport, InstrumentedCache
from .cost_model import CostModel
from .executor import ExecutionResult, Executor
from .query import BinGroupBy
from .indexes import GridIndex, Index, IndexLookup, InvertedIndex, SortedIndex
from .optimizer import Optimizer
from .plans import PhysicalPlan
from .predicates import Predicate
from .query import SelectQuery
from .rowset import RowSet, intersect_all
from .statistics import StatisticsConfig, TableStatistics
from .table import Table
from .types import ColumnKind


#: Byte budget of each of the two array-valued engine caches (``match``
#: and ``lookup``; 32 MiB for the pair).  Their values range from a few ids
#: to a table-sized array, so an entry count bounds nothing.
ARRAY_CACHE_BYTES = 16 << 20
#: Entry cap of the scalar-valued engine caches (``estimate``, ``true_time``).
SCALAR_CACHE_ENTRIES = 4096
#: Byte budget of the batch executor's engine-lifetime ``scan_memo``.  A
#: 64-view dashboard's scans, histograms and row ids take about 1.1 MiB.
SCAN_MEMO_BYTES = ARRAY_CACHE_BYTES // 4


@dataclass(frozen=True)
class SimProfile:
    """Behavioural knobs of the *simulated* engine.

    Renamed from ``EngineProfile`` when real execution backends landed
    (``repro.backends``): the declarative description of a real engine is
    now :class:`repro.backends.BackendProfile`, and this class only
    parameterizes the in-memory simulation.  The old name stays importable
    as a deprecated alias.
    """

    name: str
    #: Probability that the engine silently ignores query hints (challenge C2).
    hint_ignore_prob: float = 0.0
    #: Log-normal sigma of multiplicative execution-time noise.
    noise_sigma: float = 0.04
    #: Whether repeated access patterns get cheaper (buffer cache).
    buffer_cache: bool = False
    #: Execution-time multiplier when every touched structure is warm.
    cache_hit_factor: float = 0.45
    #: Probability of a sporadic slow run (dynamic plan change).
    instability_prob: float = 0.0
    #: Multiplier applied on a sporadic slow run.
    instability_factor: float = 2.5

    @staticmethod
    def postgres() -> "SimProfile":
        return SimProfile(name="postgres", hint_ignore_prob=0.02, noise_sigma=0.04)

    @staticmethod
    def commercial() -> "SimProfile":
        return SimProfile(
            name="commercial",
            hint_ignore_prob=0.08,
            noise_sigma=0.12,
            buffer_cache=True,
            cache_hit_factor=0.45,
            instability_prob=0.18,
            instability_factor=2.5,
        )

    @staticmethod
    def deterministic() -> "SimProfile":
        """Noise-free profile used by unit tests."""
        return SimProfile(name="deterministic", hint_ignore_prob=0.0, noise_sigma=0.0)


#: Deprecated alias — the pre-backends name for :class:`SimProfile`.
EngineProfile = SimProfile


@dataclass
class MaintenanceStats:
    """Work the engine did keeping derived structures current under
    mutation (``append_rows`` / ``invalidate_table`` / ``replace_table``),
    cumulative since the database was created.  Initial builds
    (``create_index``, first tokenization) are set-up, not maintenance."""

    rows_appended: int = 0
    #: Texts tokenized by ``append_rows`` (the delta, not the table).
    texts_tokenized: int = 0
    indexes_extended: int = 0
    indexes_rebuilt: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class Database:
    """In-memory database with a cost-based optimizer and virtual timing."""

    def __init__(
        self,
        profile: SimProfile | None = None,
        cost_model: CostModel | None = None,
        stats_config: StatisticsConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile or SimProfile.postgres()
        self.cost_model = cost_model or CostModel()
        self._stats_config = stats_config or StatisticsConfig()
        self._rng = np.random.default_rng(seed)

        self._tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, str], Index] = {}
        self._stats: dict[str, TableStatistics] = {}

        self._optimizer = Optimizer(self)
        self._executor = Executor(self)

        # A cached RowSet holds one array (``RowSet.compact``); batches
        # keep the bitmaps they intersect with themselves.
        self._match_cache = InstrumentedCache("match", budget_bytes=ARRAY_CACHE_BYTES)
        self._lookup_cache = InstrumentedCache("lookup", budget_bytes=ARRAY_CACHE_BYTES)
        self._plan_cache = InstrumentedCache("plan", capacity=1024)
        self._key_cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._true_time_cache = InstrumentedCache(
            "true_time", capacity=SCALAR_CACHE_ENTRIES
        )
        # Statistics-based selectivity estimates are pure functions of the
        # current statistics build; the QTE featurizer asks for the same
        # (table, predicate) pairs on every estimate of every request.
        self._estimate_cache = InstrumentedCache(
            "estimate", capacity=SCALAR_CACHE_ENTRIES
        )
        # Precomputed whole-column BIN_ID layouts shared by aggregate
        # queries.  Deliberately uninstrumented (like the key cache): both
        # the sequential and the batched executor may consult it without
        # perturbing the per-request cache hit/miss accounting.
        self._bin_layout_cache: dict[tuple, BinLayout] = {}
        # Scan pipelines (rows, counters, base ids, histograms) that batches
        # computed more than once, kept across batches.  Uninstrumented
        # towards the per-request deltas: not one of ``_engine_caches``, and
        # a hit still replays the match/lookup accesses (DESIGN §6.1).
        self._scan_memo = InstrumentedCache("scan_memo", budget_bytes=SCAN_MEMO_BYTES)
        #: Hashes of the scan pipelines batches have computed (oldest first,
        #: at most ``SCALAR_CACHE_ENTRIES``): the memo admits a pipeline on
        #: its second computation.  Hashes, not keys, so a never-repeated
        #: pipeline keeps no plan objects alive.
        self._scans_seen: dict[int, None] = {}
        self._warm_structures: OrderedDict = OrderedDict()
        #: Callables invoked with the table name whenever a table is
        #: invalidated, so layers holding derived state the database cannot
        #: see (QTE memos, serving decision caches) stay coherent.
        self._invalidation_hooks: list = []
        self.maintenance = MaintenanceStats()

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def add_table(self, table: Table, analyze: bool = True) -> Table:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        if analyze:
            self.analyze(table.name)
        return table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def analyze(self, table_name: str) -> TableStatistics:
        """(Re)build optimizer statistics for a table."""
        stats = TableStatistics(self.table(table_name), self._stats_config)
        self._stats[table_name] = stats
        # Fresh statistics can change every plan that reads this table —
        # and every memoized selectivity estimate derived from them.
        self._plan_cache.invalidate_tag(table_name)
        self._true_time_cache.invalidate_tag(table_name)
        self._estimate_cache.invalidate_tag(table_name)
        return stats

    def stats(self, table_name: str) -> TableStatistics:
        if table_name not in self._stats:
            return self.analyze(table_name)
        return self._stats[table_name]

    def create_index(self, table_name: str, column: str) -> Index:
        """Create the natural index for a column's kind."""
        key = (table_name, column)
        if key in self._indexes:
            raise SchemaError(f"index on {table_name}.{column} already exists")
        table = self.table(table_name)
        index = self._build_index(table, column)
        self._indexes[key] = index
        # A new access path invalidates cached plans over this table — in
        # the engine and in any hook-registered layer above (e.g. a serving
        # decision cache holding decisions planned against the old catalog).
        self._plan_cache.invalidate_tag(table_name)
        self._true_time_cache.invalidate_tag(table_name)
        self._fire_invalidation_hooks(table_name)
        return index

    def index(self, table_name: str, column: str) -> Index | None:
        return self._indexes.get((table_name, column))

    def indexes_for(self, table_name: str) -> dict[str, Index]:
        return {
            column: index
            for (tname, column), index in self._indexes.items()
            if tname == table_name
        }

    def create_sample_table(
        self,
        base_name: str,
        fraction: float,
        name: str | None = None,
        seed: int = 1234,
        with_indexes: bool = True,
    ) -> Table:
        """Materialize a random sample table, mirroring the base's indexes."""
        base = self.table(base_name)
        if name is None:
            name = f"{base_name}_sample{int(round(fraction * 100))}"
        sample = base.sample(fraction, seed=seed, name=name)
        self.add_table(sample)
        if with_indexes:
            for column in self.indexes_for(base_name):
                self.create_index(name, column)
        return sample

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def explain(self, query: SelectQuery, obey_hints: bool = True) -> PhysicalPlan:
        """Plan a query without executing it (no randomness involved)."""
        return self._planned(query, obey_hints)

    def _planned(self, query: SelectQuery, obey_hints: bool) -> PhysicalPlan:
        """Memoized planning: optimization is deterministic per catalog state."""
        key = (query.key(), obey_hints)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._optimizer.plan(query, obey_hints=obey_hints)
            tags = [query.table]
            if query.join is not None:
                tags.append(query.join.table)
            self._plan_cache.put(key, plan, tags=tags)
        return plan

    @property
    def planning_ms(self) -> float:
        """Virtual cost of producing one physical plan."""
        return self.cost_model.planning_ms

    def begin_execution(self, query: SelectQuery) -> tuple[PhysicalPlan, bool, bool]:
        """The planning half of :meth:`execute`: ``(plan, obeyed, was_planned)``.

        Draws the hint-obey decision from the engine RNG and plans the query
        accordingly — exactly the state transitions :meth:`execute` performs
        before touching the executor.  The shard router uses this to produce
        the canonical plan it scatters, so a scattered query consumes the
        same RNG draw and plan-cache sequence a single-engine execution
        would.
        """
        obeyed = True
        if query.hints is not None and self.profile.hint_ignore_prob > 0:
            obeyed = self._rng.random() >= self.profile.hint_ignore_prob
        was_planned = (query.key(), obeyed) in self._plan_cache
        plan = self._planned(query, obeyed)
        return plan, obeyed, was_planned

    def complete_execution(
        self,
        plan: PhysicalPlan,
        counters: WorkCounters,
        row_ids: np.ndarray | None,
        bins: dict[int, float] | None,
        *,
        obeyed: bool = True,
        was_planned: bool = False,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> ExecutionResult:
        """The accounting half of :meth:`execute`: counters → timed result.

        Converts work counters to ``base_ms`` and applies this engine's
        profile effects (buffer-cache warming, instability, noise — and
        their RNG draws).  The shard router calls this on gathered/merged
        scatter output so virtual timing is charged by one engine, once.
        """
        base_ms = self.cost_model.time_ms(counters)
        execution_ms = self._apply_profile_effects(base_ms, plan)
        return ExecutionResult(
            plan=plan,
            counters=counters,
            base_ms=base_ms,
            execution_ms=execution_ms,
            row_ids=row_ids,
            bins=bins,
            obeyed_hints=obeyed,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            plan_cached=was_planned,
        )

    def execute_planned(
        self,
        plan: PhysicalPlan,
        query: SelectQuery,
        *,
        obeyed: bool = True,
        was_planned: bool = False,
    ) -> ExecutionResult:
        """Run an already-produced plan: the executor half of :meth:`execute`.

        The shard router uses this for fallback queries whose plan (and
        hint-obey draw) :meth:`begin_execution` already consumed.
        """
        before = self._cache_counts()
        counters, row_ids, bins = self._executor.run(plan, query)
        hits, misses = self._cache_delta(before)
        return self.complete_execution(
            plan,
            counters,
            row_ids,
            bins,
            obeyed=obeyed,
            was_planned=was_planned,
            cache_hits=hits,
            cache_misses=misses,
        )

    def execute(self, query: SelectQuery) -> ExecutionResult:
        """Plan and run a query, with profile noise/caching effects applied."""
        before = self._cache_counts()
        plan, obeyed, was_planned = self.begin_execution(query)
        counters, row_ids, bins = self._executor.run(plan, query)
        hits, misses = self._cache_delta(before)
        return self.complete_execution(
            plan,
            counters,
            row_ids,
            bins,
            obeyed=obeyed,
            was_planned=was_planned,
            cache_hits=hits,
            cache_misses=misses,
        )

    def execute_batch(
        self, queries: Sequence[SelectQuery]
    ) -> tuple[list[ExecutionResult], BatchSharingStats]:
        """Execute many queries with cross-request work sharing.

        Observably equivalent to ``[self.execute(q) for q in queries]`` —
        bit-identical results, work counters, virtual times, per-request
        cache hit/miss deltas, and post-call cache/RNG state — while each
        distinct index probe, predicate row set, scan pipeline, and BIN_ID
        histogram is computed once per batch (see
        :class:`~repro.db.batch_executor.BatchExecutor`).  Also returns the
        batch's sharing statistics for serving-layer reports.
        """
        return BatchExecutor(self).execute(list(queries))

    def _admits_scan(self, result: ScanResult) -> bool:
        """Whether a scan a batch just computed enters the scan memo: only
        if an earlier batch computed the same pipeline, and only if it takes
        at most a quarter of the memo's budget."""
        digest = hash(result.key)
        seen = self._scans_seen
        if digest not in seen:
            seen[digest] = None
            if len(seen) > SCALAR_CACHE_ENTRIES:
                del seen[next(iter(seen))]
            return False
        return result.nbytes <= SCAN_MEMO_BYTES // 4

    def scan_memo_stats(self) -> CacheStats:
        """Counters and gauges of the batch executor's scan memo (kept out
        of :meth:`cache_stats`: it is no cache a request's deltas count)."""
        return self._scan_memo.stats.snapshot()

    def bin_layout(self, table_name: str, group_by: BinGroupBy) -> BinLayout:
        """Whole-column BIN_ID layout, cached per (table, column, cell size).

        Invalidated with the table's other derived state on mutation.
        """
        key = (table_name, group_by.column, group_by.cell_x, group_by.cell_y)
        layout = self._bin_layout_cache.get(key)
        if layout is None:
            points = self.table(table_name).points(group_by.column)
            layout = build_bin_layout(points, group_by)
            self._bin_layout_cache[key] = layout
        return layout

    def true_execution_time_ms(self, query: SelectQuery) -> float:
        """Noiseless execution time of the (hint-obeying) plan for ``query``.

        This is the oracle quantity behind the paper's Accurate-QTE and its
        "number of viable plans" difficulty metric. Memoized per query.
        """
        key = query.key()
        cached = self._true_time_cache.get(key)
        if cached is not None:
            return cached
        plan = self._planned(query, obey_hints=True)
        counters, _, _ = self._executor.run(plan, query)
        time_ms = self.cost_model.time_ms(counters)
        tags = [query.table]
        if query.join is not None:
            tags.append(query.join.table)
        self._true_time_cache.put(key, time_ms, tags=tags)
        return time_ms

    def true_result(self, query: SelectQuery) -> ExecutionResult:
        """Noiseless execution (used offline, e.g. for quality rewards)."""
        plan = self._planned(query, obey_hints=True)
        counters, row_ids, bins = self._executor.run(plan, query)
        base_ms = self.cost_model.time_ms(counters)
        return ExecutionResult(
            plan=plan,
            counters=counters,
            base_ms=base_ms,
            execution_ms=base_ms,
            row_ids=row_ids,
            bins=bins,
        )

    def _apply_profile_effects(self, base_ms: float, plan: PhysicalPlan) -> float:
        profile = self.profile
        time_ms = base_ms
        if profile.buffer_cache:
            touched = self._touched_structures(plan)
            if touched:
                warm = sum(1 for s in touched if s in self._warm_structures)
                warm_fraction = warm / len(touched)
                factor = 1.0 - (1.0 - profile.cache_hit_factor) * warm_fraction
                time_ms *= factor
            for structure in touched:
                self._warm_structures[structure] = True
                self._warm_structures.move_to_end(structure)
            while len(self._warm_structures) > 8:
                self._warm_structures.popitem(last=False)
        if profile.instability_prob > 0 and self._rng.random() < profile.instability_prob:
            time_ms *= profile.instability_factor
        if profile.noise_sigma > 0:
            time_ms *= float(np.exp(profile.noise_sigma * self._rng.standard_normal()))
        return time_ms

    def _touched_structures(self, plan: PhysicalPlan) -> list[tuple[str, str]]:
        touched = [
            (plan.scan.table, path.predicate.column) for path in plan.scan.access
        ]
        if plan.scan.is_full_scan:
            touched.append((plan.scan.table, "<heap>"))
        if plan.join is not None:
            touched.append((plan.join.inner_table, plan.join.right_column))
        return touched

    # ------------------------------------------------------------------
    # Matching services (memoized, index-accelerated)
    # ------------------------------------------------------------------
    def match_rowset(self, table_name: str, predicate: Predicate) -> RowSet:
        """Exact :class:`RowSet` matching ``predicate`` on ``table_name``.

        This is the engine's predicate-match cache: the RowSet, in its
        compact one-array form, is shared across every request that filters
        on the same condition.
        """
        key = (table_name, predicate.key())
        cached = self._match_cache.get(key)
        if cached is not None:
            return cached
        return self._cache_match(key, self._compute_match(table_name, predicate))

    def _compute_match(self, table_name: str, predicate: Predicate) -> RowSet:
        """The match set, from the index probe when one answers it (reusing
        a cached probe without touching the lookup cache's counters)."""
        table = self.table(table_name)
        index = self.index(table_name, predicate.column)
        if index is None or not index.supports(predicate):
            return predicate.matching_rowset(table)
        lookup = self._lookup_cache.peek((table_name, predicate.key()))
        if lookup is None:
            lookup = index.lookup(predicate)
        return RowSet.from_ids(lookup.row_ids, table.n_rows)

    def _cache_match(self, key: tuple, rowset: RowSet) -> RowSet:
        """Put ``rowset``'s compact form in the match cache; return it."""
        compact = rowset.compact()
        self._match_cache.put(key, compact, tags=[key[0]])
        return compact

    def match_ids(self, table_name: str, predicate: Predicate) -> np.ndarray:
        """Exact sorted row ids matching ``predicate`` on ``table_name``."""
        return self.match_rowset(table_name, predicate).ids

    def index_lookup(self, table_name: str, predicate: Predicate) -> IndexLookup:
        """Index probe for ``predicate`` (requires a supporting index)."""
        key = (table_name, predicate.key())
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        index = self.index(table_name, predicate.column)
        if index is None or not index.supports(predicate):
            raise SchemaError(
                f"no index supports predicate {predicate!r} on {table_name!r}"
            )
        lookup = index.lookup(predicate)
        self._lookup_cache.put(key, lookup, tags=[table_name])
        return lookup

    def key_lookup(self, table_name: str, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (values, row-id permutation) for equi-join key probing."""
        key = (table_name, column)
        if key not in self._key_cache:
            values = self.table(table_name).numeric(column)
            order = np.argsort(values, kind="stable")
            self._key_cache[key] = (values[order], order.astype(np.int64))
        return self._key_cache[key]

    # ------------------------------------------------------------------
    # Selectivities and cardinalities
    # ------------------------------------------------------------------
    def true_selectivity(self, table_name: str, predicate: Predicate) -> float:
        table = self.table(table_name)
        if table.n_rows == 0:
            return 0.0
        return len(self.match_rowset(table_name, predicate)) / table.n_rows

    def estimated_selectivity(self, table_name: str, predicate: Predicate) -> float:
        key = (table_name, predicate.key())
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached
        estimate = self.stats(table_name).estimate_selectivity(predicate)
        self._estimate_cache.put(key, estimate, tags=[table_name])
        return estimate

    def estimate_cardinality(self, query: SelectQuery) -> float:
        """Output cardinality estimate (sizes the paper's LIMIT rules).

        Prefers counting on a registered sample of the query's table (the
        middleware's sampling-QTE machinery) because the optimizer's own
        statistics are — by design — unreliable on text and spatial
        conditions.  Falls back to the statistics estimate when no sample
        table exists.
        """
        rows = self._sample_cardinality(query)
        if rows is None:
            rows = self.stats(query.table).estimate_rows(query.predicates)
        if query.join is not None:
            inner_stats = self.stats(query.join.table)
            rows *= inner_stats.estimate_conjunction(query.join.predicates)
        return rows

    def _sample_cardinality(self, query: SelectQuery) -> float | None:
        """Conjunction count on the largest registered sample, scaled up."""
        best: Table | None = None
        for table in self._tables.values():
            if table.base_table == query.table and table.sample_fraction:
                if best is None or table.n_rows > best.n_rows:
                    best = table
        if best is None or best.n_rows == 0:
            return None
        if query.predicates:
            matched = intersect_all(
                self.match_rowset(best.name, p) for p in query.predicates
            )
            count = len(matched)
        else:
            count = best.n_rows
        assert best.sample_fraction is not None
        return count / best.sample_fraction

    # ------------------------------------------------------------------
    # Mutation and cache management
    # ------------------------------------------------------------------
    def append_rows(self, table_name: str, columns: Mapping[str, object]) -> Table:
        """Append rows to a table at a cost proportional to the rows.

        The table's indexes and token sets are *extended* with the new rows
        (an index that cannot absorb them exactly is rebuilt), statistics
        are re-analyzed, and every cache entry derived from the table is
        evicted — the resulting state is indistinguishable from rebuilding
        everything on the grown table.  Sample tables drawn from it are
        *not* refreshed (they keep approximating the table as of their
        creation, like a stale materialized sample).
        """
        table = self.table(table_name)
        first_new = table.n_rows
        tokenized_before = table.texts_tokenized
        table.append_rows(columns)
        self.invalidate_table(table_name, appended_from=first_new)
        self.maintenance.rows_appended += table.n_rows - first_new
        self.maintenance.texts_tokenized += table.texts_tokenized - tokenized_before
        return table

    def replace_table(self, table: Table, analyze: bool = False) -> Table:
        """Swap in a replacement for an existing table of the same name.

        This is the shard-maintenance path: when the router re-slices a
        mutated table, each worker receives a fresh slice and installs it
        here — indexes on the table are rebuilt against the new data and
        every cache entry derived from the old version is evicted.  No
        invalidation hooks fire (the router drives worker-side coherence
        explicitly); statistics are rebuilt only on request unless
        ``analyze`` is set.
        """
        name = table.name
        if name not in self._tables:
            raise SchemaError(f"cannot replace unknown table {name!r}")
        self._tables[name] = table
        self._refresh_derived(table)
        self._stats.pop(name, None)
        if analyze:
            self.analyze(name)
        return table

    def add_invalidation_hook(self, hook) -> None:
        """Register ``hook(table_name)`` to run on every catalog invalidation
        (table mutation or index creation).

        Bound methods are held weakly, so registering does not keep the
        owning object (a serving layer, a QTE) alive; dead hooks are pruned
        on the next firing.  Plain functions/lambdas are held strongly.
        """
        try:
            self._invalidation_hooks.append(weakref.WeakMethod(hook))
        except TypeError:
            self._invalidation_hooks.append(lambda _hook=hook: _hook)

    def _fire_invalidation_hooks(self, table_name: str) -> None:
        live = []
        for ref in self._invalidation_hooks:
            hook = ref()
            if hook is not None:
                hook(table_name)
                live.append(ref)
        self._invalidation_hooks = live

    def invalidate_table(
        self, table_name: str, *, appended_from: int | None = None
    ) -> None:
        """Bring everything derived from ``table_name`` up to date.

        Indexes are rebuilt — or, when the only change is that rows
        ``appended_from..`` were appended, extended with those rows — every
        cache entry tagged with the table is evicted, statistics are
        re-analyzed and the invalidation hooks fire (statistics moved, so
        layers above must replan).
        """
        self._refresh_derived(self.table(table_name), appended_from)
        self.analyze(table_name)
        self._fire_invalidation_hooks(table_name)

    def _refresh_derived(self, table: Table, appended_from: int | None = None) -> None:
        """Indexes follow ``table``'s current rows; its cache entries go."""
        name = table.name
        for key, index in self._indexes.items():
            if key[0] != name:
                continue
            if appended_from is not None and index.extend(table, appended_from):
                self.maintenance.indexes_extended += 1
            else:
                self._indexes[key] = self._build_index(table, key[1])
                self.maintenance.indexes_rebuilt += 1
        self._match_cache.invalidate_tag(name)
        self._lookup_cache.invalidate_tag(name)
        self._plan_cache.invalidate_tag(name)
        self._true_time_cache.invalidate_tag(name)
        self._estimate_cache.invalidate_tag(name)
        self._scan_memo.invalidate_tag(name)
        for key in [k for k in self._key_cache if k[0] == name]:
            del self._key_cache[key]
        for key in [k for k in self._bin_layout_cache if k[0] == name]:
            del self._bin_layout_cache[key]
        self._warm_structures.clear()

    def _build_index(self, table: Table, column: str) -> Index:
        kind = table.schema.kind_of(column)
        if kind.is_numeric:
            return SortedIndex(table, column)
        if kind is ColumnKind.TEXT:
            return InvertedIndex(table, column)
        if kind is ColumnKind.POINT:
            return GridIndex(table, column)
        raise SchemaError(f"cannot index column kind {kind}")

    def _cache_counts(self) -> tuple[int, int]:
        stats = (s for s in self._engine_caches())
        hits = misses = 0
        for s in stats:
            hits += s.hits
            misses += s.misses
        return hits, misses

    def _cache_delta(self, before: tuple[int, int]) -> tuple[int, int]:
        hits, misses = self._cache_counts()
        return hits - before[0], misses - before[1]

    def _engine_caches(self) -> tuple[CacheStats, ...]:
        return (
            self._match_cache.stats,
            self._lookup_cache.stats,
            self._plan_cache.stats,
            self._true_time_cache.stats,
            self._estimate_cache.stats,
        )

    def cache_stats(self) -> CacheStatsReport:
        """Hit-rate counters of every engine cache (for serving reports)."""
        return CacheStatsReport(caches=tuple(s.snapshot() for s in self._engine_caches()))

    def clear_caches(self) -> None:
        self._match_cache.clear()
        self._lookup_cache.clear()
        self._plan_cache.clear()
        self._key_cache.clear()
        self._true_time_cache.clear()
        self._estimate_cache.clear()
        self._bin_layout_cache.clear()
        self._scan_memo.clear()
        self._scans_seen.clear()
        self._warm_structures.clear()
