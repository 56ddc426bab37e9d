"""Pinned numpy-scalar estimation math — the bit-identity reference.

This module is a faithful copy of the Approximate-QTE featurization and of
the scalar statistics estimates as they were *before* both moved to plain
Python floats: the feature row written element by element into an
``np.empty`` array, and the histogram / bounding-box selectivities computed
with ``np.searchsorted`` and ``np.clip`` over an ``ndarray`` of boundaries.
It exists so that ``tests/qte/test_estimate_identity.py`` can assert that
the production estimates are bitwise equal to it.

Do not "modernize" this module: its value is that it does NOT change when
the production code does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.db.predicates import RangePredicate, SpatialPredicate
from repro.db.types import BoundingBox
from repro.qte import EstimationOutcome


class ReferenceNumericStats:
    """The pre-bisect ``NumericColumnStats`` scalar path."""

    def __init__(self, boundaries) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.float64)
        self.min = float(self.boundaries[0])
        self.max = float(self.boundaries[-1])

    def selectivity_range(self, low, high) -> float:
        lo = self.min if low is None else low
        hi = self.max if high is None else high
        if hi < self.min or lo > self.max:
            return 0.0
        frac_hi = self._cumulative_fraction(hi, side="right")
        frac_lo = self._cumulative_fraction(lo, side="left")
        return float(np.clip(frac_hi - frac_lo, 0.0, 1.0))

    def _cumulative_fraction(self, value, side: str) -> float:
        boundaries = self.boundaries
        buckets = len(boundaries) - 1
        if value <= boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        pos = int(np.searchsorted(boundaries, value, side=side))
        pos = min(max(pos, 1), buckets)
        left, right = boundaries[pos - 1], boundaries[pos]
        within = 0.5 if right == left else (value - left) / (right - left)
        return ((pos - 1) + within) / buckets


def reference_selectivity_box(extent: BoundingBox, box: BoundingBox) -> float:
    """The pre-``min``/``max`` ``SpatialColumnStats.selectivity_box``."""
    overlap = extent.intersection(box)
    if overlap is None:
        return 0.0
    total_area = extent.area()
    if total_area <= 0:
        return 1.0
    return float(np.clip(overlap.area() / total_area, 0.0, 1.0))


def reference_estimate_selectivity(stats, predicate) -> float:
    """``TableStatistics.estimate_selectivity`` on the reference paths.

    Keyword and equality estimates never touched numpy and are taken from
    ``stats`` as they are.
    """
    if isinstance(predicate, RangePredicate):
        numeric = stats._numeric[predicate.column]
        return ReferenceNumericStats(numeric.boundaries).selectivity_range(
            predicate.low, predicate.high
        )
    if isinstance(predicate, SpatialPredicate):
        extent = stats._spatial[predicate.column].extent
        return reference_selectivity_box(extent, predicate.box)
    return stats.estimate_selectivity(predicate)


def reference_feature_vector(qte, rewritten, cache) -> np.ndarray:
    """The pre-plain-float ``SamplingQTE`` feature row."""
    database = qte._db
    log1p = math.log1p
    n_rows = database.table(rewritten.table).n_rows
    log_rows = log1p(n_rows) / 12.0

    hints = rewritten.hints
    hinted = hints.index_on if hints is not None else frozenset()
    collected = cache.collected_keys
    stats = database.stats(rewritten.table)
    sels: dict[str, float] = {}
    for predicate in rewritten.predicates:
        column = predicate.column
        if column in collected:
            sels[column] = cache.get(column)
        else:
            sels[column] = reference_estimate_selectivity(stats, predicate)
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
    features = np.empty(qte.n_features, dtype=np.float64)
    features[0] = 1.0
    features[1] = log_rows
    features[2] = full_scan
    features[3] = full_scan * log_rows
    features[4] = log1p(n_rows * access_product) / 12.0 if access_sels else 0.0
    features[5] = log1p(sum(n_rows * s for s in access_sels)) / 12.0
    features[6] = log1p(n_rows * all_sel) / 12.0
    features[7] = float(len(access_sels))
    features[8] = float(len(rewritten.predicates) - len(access_sels))
    index = 9
    for attribute in qte.attributes:
        sel = sels.get(attribute)
        features[index] = 1.0 if sel is not None else 0.0
        features[index + 1] = 1.0 if attribute in hinted else 0.0
        features[index + 2] = (
            -math.log10(max(sel, 1e-6)) / 6.0 if sel is not None else 0.0
        )
        index += 3
    join_method = hints.join_method if hints is not None else None
    for method in ("nestloop", "hash", "merge"):
        features[index] = 1.0 if join_method == method else 0.0
        index += 1
    if rewritten.join is not None:
        inner_stats = database.stats(rewritten.join.table)
        inner_sel = 1.0
        for predicate in rewritten.join.predicates:
            inner_sel *= reference_estimate_selectivity(inner_stats, predicate)
        features[index] = 1.0
        features[index + 1] = log1p(inner_stats.n_rows * inner_sel) / 12.0
    else:
        features[index] = 0.0
        features[index + 1] = 0.0
    features[index + 2] = (
        log1p(rewritten.limit) / 12.0 if rewritten.limit is not None else 0.0
    )
    return features


def reference_estimate(qte, rewritten, cache) -> EstimationOutcome:
    """The pre-change ``SamplingQTE.estimate`` over the reference features.

    Selectivity collection is shared production code (``_sample_selectivity``
    did not change); everything downstream of it is the reference.
    """
    hints = rewritten.hints
    collected = cache.collected_keys
    cost_ms = qte.overhead_ms
    if hints is not None:
        index_on = hints.index_on
        by_column = None
        for predicate in rewritten.predicates:
            column = predicate.column
            if column in index_on and column not in collected:
                if by_column is None:
                    by_column = {p.column: p for p in rewritten.predicates}
                cache.put(column, qte._sample_selectivity(by_column[column]))
                cost_ms += qte.unit_cost_ms
    features = reference_feature_vector(qte, rewritten, cache)
    predicted_log = float(features @ qte._weights)
    estimated_ms = min(max(math.expm1(min(predicted_log, 25.0)), 0.1), 1e7)
    return EstimationOutcome(estimated_ms=estimated_ms, cost_ms=cost_ms)
