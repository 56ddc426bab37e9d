"""The Approximate-QTE: sampling-based selectivities + an analytic model.

Implements the estimator of Section 4.2 (after Wu et al. [67]): selectivity
values of the query conditions are measured by running count(*) against a
small random sample table, then fed into an analytic cost model fitted
offline on observed execution times.

Cost structure: each *uncollected* selectivity costs ``unit_cost_ms``
(default 10 ms — cheaper than the Accurate-QTE's 40 ms, which is why the
approximate agent wins at tight budgets, Figure 16a) plus a fixed model
overhead.  Accuracy is good on the PostgreSQL-style profile where execution
time is a clean function of selectivities, and collapses on the commercial
profile whose buffer-cache and plan-instability effects the features cannot
see — reproducing Section 7.6.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..db.caches import CacheStats, InstrumentedCache
from ..db.predicates import Predicate
from ..errors import EstimationError
from .base import EstimationOutcome, QueryTimeEstimator
from .fused import fused_predicate_counts
from .selectivity import SelectivityCache


class SamplingQTE(QueryTimeEstimator):
    """Sample-count selectivities feeding a fitted log-linear cost model."""

    name = "approximate"

    def __init__(
        self,
        database: Database,
        attributes: Sequence[str],
        sample_table: str,
        unit_cost_ms: float = 10.0,
        overhead_ms: float = 2.0,
        ridge: float = 1e-2,
    ) -> None:
        self._db = database
        self.attributes = tuple(attributes)
        self.sample_table = sample_table
        self.unit_cost_ms = unit_cost_ms
        self.overhead_ms = overhead_ms
        self.ridge = ridge
        self._weights: np.ndarray | None = None
        self.training_rmse_log: float | None = None
        # Cross-request memo: a predicate sampled for one request is not
        # counted again for the next.  Virtual estimation costs are *not*
        # affected — the paper's C_i accounting charges for collection per
        # request regardless of how fast the middleware's hardware produces
        # the number.  Feature rows are not memoized: their key (the query
        # plus its selectivity snapshot) costs as much as the row and
        # practically never repeats.
        self._sel_memo = InstrumentedCache("qte_selectivity", capacity=8192)
        #: table name -> (n_rows, log1p(n_rows) / 12) — recomputed per
        #: featurization otherwise; dropped with the selectivity memo.
        self._table_memo: dict[str, tuple[int, float]] = {}
        # Self-invalidate on any catalog change, so even a bare Maliva
        # facade (no serving layer attached) never serves stale memos.
        database.add_invalidation_hook(self._on_table_invalidated)

    # ------------------------------------------------------------------
    # QTE protocol
    # ------------------------------------------------------------------
    def cost_structure(self) -> tuple[float, float]:
        return (self.unit_cost_ms, self.overhead_ms)

    def estimate(
        self, rewritten: SelectQuery, cache: SelectivityCache
    ) -> EstimationOutcome:
        if self._weights is None:
            raise EstimationError("SamplingQTE.estimate called before fit()")
        # Inlined required_attributes/missing walk: one pass over the
        # predicates, collecting as it goes (runs once per MDP step).  When
        # several predicates share a column, the LAST one is sampled — the
        # by-column-dict semantics of the prefetch paths (``probes_for``,
        # the lockstep frontier) and of the original frozenset walk.
        hints = rewritten.hints
        collected = cache.collected_keys
        n_collected = 0
        if hints is not None:
            index_on = hints.index_on
            by_column: dict[str, object] | None = None
            for predicate in rewritten.predicates:
                column = predicate.column
                if column in index_on and column not in collected:
                    if by_column is None:
                        by_column = {p.column: p for p in rewritten.predicates}
                    cache.put(column, self._sample_selectivity(by_column[column]))
                    n_collected += 1
        features = self.feature_vector(rewritten, cache)
        predicted_log = float(features @ self._weights)
        estimated_ms = min(max(math.expm1(min(predicted_log, 25.0)), 0.1), 1e7)
        return EstimationOutcome(
            estimated_ms=estimated_ms, cost_ms=self.estimation_cost_ms(n_collected)
        )

    # ------------------------------------------------------------------
    # Selectivity collection and featurization
    # ------------------------------------------------------------------
    def collect_batch(self, probes: Sequence[Predicate]) -> None:
        """Answer many selectivity probes with one fused pass per attribute.

        Deduplicates the frontier's probes against each other and against
        the cross-request memo, then counts all of an attribute's pending
        predicates in a single vectorized sweep of the sample table (one
        broadcast comparison for ranges/boxes, one token-set walk for
        keywords) instead of one engine round-trip per predicate.  Counts
        are computed with exactly the predicate-mask comparisons, so the
        memoized values are bit-identical to :meth:`_sample_selectivity`'s.
        """
        pending: dict[tuple, Predicate] = {}
        for predicate in probes:
            key = predicate.key()
            if key not in pending and self._sel_memo.get(key) is None:
                pending[key] = predicate
        if not pending:
            return
        sample = self._db.table(self.sample_table)
        if sample.n_rows == 0:
            # Sequential collection answers 0.0 without memoizing; match it.
            return
        n_rows = sample.n_rows
        groups: dict[tuple[type, str], list[Predicate]] = {}
        for predicate in pending.values():
            groups.setdefault((type(predicate), predicate.column), []).append(predicate)
        for (kind, column), group in groups.items():
            for predicate, count in zip(group, self._fused_counts(sample, kind, column, group)):
                self._sel_memo.put(predicate.key(), int(count) / n_rows)

    def _fused_counts(self, sample, kind, column: str, group: list) -> np.ndarray:
        """Matching-row counts for same-attribute predicates, one table pass."""
        return fused_predicate_counts(sample, kind, column, group)

    def _sample_selectivity(self, predicate) -> float:
        cached = self._sel_memo.get(predicate.key())
        if cached is not None:
            return cached
        sample = self._db.table(self.sample_table)
        if sample.n_rows == 0:
            return 0.0
        count = len(self._db.match_rowset(self.sample_table, predicate))
        selectivity = count / sample.n_rows
        self._sel_memo.put(predicate.key(), selectivity)
        return selectivity

    def feature_vector(
        self, rewritten: SelectQuery, cache: SelectivityCache
    ) -> np.ndarray:
        """Cost-structure features mirroring the analytic model of [67].

        Selectivities come from ``cache`` when collected, else from the
        optimizer's (error-prone) statistics.  Runs once per MDP step on the
        planning hot path, so the row is assembled from plain floats into
        one array and the per-table log term is memoized; the arithmetic —
        order of multiplications included — matches the original
        formulation exactly."""
        log1p = math.log1p
        table_memo = self._table_memo.get(rewritten.table)
        if table_memo is None:
            n_rows = self._db.table(rewritten.table).n_rows
            table_memo = (n_rows, log1p(n_rows) / 12.0)
            self._table_memo[rewritten.table] = table_memo
        n_rows, log_rows = table_memo

        hints = rewritten.hints
        hinted = hints.index_on if hints is not None else frozenset()
        collected = cache.collected_keys
        sels: dict[str, float] = {}
        for predicate in rewritten.predicates:
            column = predicate.column
            if column in collected:
                sels[column] = cache.get(column)
            else:
                sels[column] = self._db.estimated_selectivity(rewritten.table, predicate)
        access_sels: list[float] = []
        all_sel = 1.0
        access_product = 1.0
        for predicate in rewritten.predicates:
            sel = sels[predicate.column]
            all_sel *= sel
            if predicate.column in hinted:
                access_sels.append(sel)
                access_product *= sel

        full_scan = 0.0 if access_sels else 1.0
        row = [
            1.0,
            log_rows,
            full_scan,
            full_scan * log_rows,
            log1p(n_rows * access_product) / 12.0 if access_sels else 0.0,
            log1p(sum(n_rows * s for s in access_sels)) / 12.0,
            log1p(n_rows * all_sel) / 12.0,
            float(len(access_sels)),
            float(len(rewritten.predicates) - len(access_sels)),
        ]
        # Per canonical attribute: presence, index usage, log selectivity.
        for attribute in self.attributes:
            sel = sels.get(attribute)
            row += (
                1.0 if sel is not None else 0.0,
                1.0 if attribute in hinted else 0.0,
                -math.log10(max(sel, 1e-6)) / 6.0 if sel is not None else 0.0,
            )
        # Join method one-hots and inner-filter selectivity estimate.
        join_method = hints.join_method if hints is not None else None
        row += [1.0 if join_method == m else 0.0 for m in ("nestloop", "hash", "merge")]
        if rewritten.join is not None:
            inner_stats = self._db.stats(rewritten.join.table)
            inner_sel = inner_stats.estimate_conjunction(rewritten.join.predicates)
            row += (1.0, log1p(inner_stats.n_rows * inner_sel) / 12.0)
        else:
            row += (0.0, 0.0)
        limit = rewritten.limit
        row.append(log1p(limit) / 12.0 if limit is not None else 0.0)
        return np.array(row, dtype=np.float64)

    @property
    def n_features(self) -> int:
        return 9 + 3 * len(self.attributes) + 3 + 2 + 1

    # ------------------------------------------------------------------
    # Offline fitting
    # ------------------------------------------------------------------
    def fit(self, rewritten_queries: Sequence[SelectQuery]) -> float:
        """Fit the analytic model on observed execution times.

        For each training RQ, all condition selectivities are measured on
        the sample table (offline, so collection cost is irrelevant), the RQ
        is executed once, and the observed time becomes the regression
        target (log scale).  Returns the training RMSE in log space.
        """
        if not rewritten_queries:
            raise EstimationError("cannot fit SamplingQTE on an empty workload")
        rows = []
        targets = []
        for rewritten in rewritten_queries:
            cache = SelectivityCache()
            for predicate in rewritten.predicates:
                cache.put(predicate.column, self._sample_selectivity(predicate))
            rows.append(self.feature_vector(rewritten, cache))
            observed_ms = self._db.execute(rewritten).execution_ms
            targets.append(math.log1p(observed_ms))
        design = np.vstack(rows)
        target = np.asarray(targets, dtype=np.float64)
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ target)
        residuals = design @ self._weights - target
        self.training_rmse_log = float(np.sqrt(np.mean(residuals**2)))
        return self.training_rmse_log

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    # ------------------------------------------------------------------
    # Cross-request memo management
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cross-request memos (normally hook-driven, see __init__)."""
        self._sel_memo.clear()
        self._table_memo.clear()

    def _on_table_invalidated(self, table_name: str) -> None:
        # Sample counts and table sizes change with the catalog; clearing
        # the memos on any catalog change is cheap and always safe.
        self.invalidate()

    def cache_stats(self) -> tuple[CacheStats, ...]:
        return (self._sel_memo.stats.snapshot(),)
