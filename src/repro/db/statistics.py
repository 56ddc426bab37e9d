"""Table statistics and selectivity estimation, PostgreSQL-style.

This module is *deliberately imperfect* in the same ways a general-purpose
optimizer is — the paper's whole premise is that the database sometimes picks
a bad plan because of cost-estimation errors (Section 1: out of 602 queries
with a viable plan, PostgreSQL missed it for 269 due to estimation errors):

* **Numeric / timestamp** columns get equi-depth histograms. These are quite
  accurate, like PostgreSQL's — temporal range conditions are estimated well.
* **Text** columns: PostgreSQL keeps no per-token statistics for
  CONTAINS-style predicates and falls back to a flat default match
  selectivity (~0.005, cf. DEFAULT_MATCH_SEL).  We reproduce that: by
  default every keyword is estimated at ``default_token_selectivity``
  regardless of its true frequency.  Frequent keywords (like the paper's
  "covid") are therefore *underestimated* by up to two orders of magnitude,
  so the optimizer eagerly picks inverted-index scans that actually fetch
  huge row sets — the paper's Figure 1 failure.  Setting ``mcv_size > 0``
  enables a most-common-token list (tsvector-statistics-style) for
  experiments that want a better-informed optimizer.
* **Point** columns keep only the data bounding box and assume a *uniform*
  spatial distribution. Real data is clustered around cities, so selectivity
  of a query box is overestimated in sparse areas and underestimated in
  dense ones.

The estimates combine under the classic attribute-independence assumption.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import SchemaError
from .predicates import (
    EqualsPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SpatialPredicate,
)
from .table import Table
from .tokens import PackedTokens
from .types import BoundingBox, ColumnKind


@dataclass(frozen=True)
class StatisticsConfig:
    """Knobs controlling how statistics are collected."""

    histogram_buckets: int = 100
    #: Size of the most-common-token list; 0 (the default) reproduces
    #: PostgreSQL's flat default selectivity for CONTAINS predicates.
    mcv_size: int = 0
    text_sample_rows: int = 5_000
    #: Selectivity assumed for tokens without statistics (PostgreSQL's
    #: DEFAULT_MATCH_SEL is 0.005) — the source of keyword underestimation.
    default_token_selectivity: float = 0.005
    seed: int = 9176


class NumericColumnStats:
    """Equi-depth histogram over a numeric or timestamp column."""

    def __init__(self, values: np.ndarray, buckets: int) -> None:
        if len(values) == 0:
            raise SchemaError("cannot build statistics for an empty column")
        self.n = len(values)
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        # Plain floats: every planned predicate estimates one scalar here,
        # where numpy's per-call overhead dwarfs the arithmetic.
        self.boundaries: list[float] = np.quantile(values, quantiles).tolist()
        self.min = self.boundaries[0]
        self.max = self.boundaries[-1]
        # Distinct-count estimate from the sample of sorted values.
        self.n_distinct = int(len(np.unique(values[:: max(1, self.n // 10_000)])))

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        lo = self.min if low is None else low
        hi = self.max if high is None else high
        if hi < self.min or lo > self.max:
            return 0.0
        frac_hi = self._cumulative_fraction(hi, bisect_right)
        frac_lo = self._cumulative_fraction(lo, bisect_left)
        return min(max(frac_hi - frac_lo, 0.0), 1.0)

    def selectivity_equals(self) -> float:
        return 1.0 / max(1, self.n_distinct)

    def _cumulative_fraction(
        self, value: float, search: Callable[[list[float], float], int]
    ) -> float:
        """Fraction of rows <= value, linearly interpolated within buckets;
        ``search`` is the bisect side (``searchsorted``'s left/right)."""
        boundaries = self.boundaries
        buckets = len(boundaries) - 1
        if value <= boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        pos = min(max(search(boundaries, value), 1), buckets)
        left, right = boundaries[pos - 1], boundaries[pos]
        within = 0.5 if right == left else (value - left) / (right - left)
        return ((pos - 1) + within) / buckets


class TextColumnStats:
    """Most-common-token list built from a bounded row sample."""

    def __init__(
        self,
        tokens: PackedTokens,
        mcv_size: int,
        sample_rows: int,
        default_selectivity: float,
        seed: int,
    ) -> None:
        n = tokens.n_rows
        if n == 0:
            raise SchemaError("cannot build statistics for an empty column")
        self.default_selectivity = default_selectivity
        self.mcv: dict[str, float] = {}
        if mcv_size == 0:
            # No list to fill: skip the sample, the token count and the sort.
            return
        rng = np.random.default_rng(seed)
        if n > sample_rows:
            picked = rng.choice(n, size=sample_rows, replace=False)
            counts = tokens.document_counts(picked)
            sample_n = sample_rows
        else:
            counts = tokens.document_counts()
            sample_n = n
        vocabulary = tokens.vocabulary
        ranked = sorted(
            ((vocabulary[t], int(counts[t])) for t in np.flatnonzero(counts).tolist()),
            key=lambda item: (-item[1], item[0]),
        )
        self.mcv = {token: count / sample_n for token, count in ranked[:mcv_size]}

    def selectivity_keyword(self, token: str) -> float:
        return self.mcv.get(token, self.default_selectivity)


class SpatialColumnStats:
    """Bounding box plus a uniform-distribution assumption."""

    def __init__(self, points: np.ndarray) -> None:
        if len(points) == 0:
            raise SchemaError("cannot build statistics for an empty column")
        mins = points.min(axis=0)
        maxs = points.max(axis=0)
        self.extent = BoundingBox(
            float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])
        )

    def selectivity_box(self, box: BoundingBox) -> float:
        overlap = self.extent.intersection(box)
        if overlap is None:
            return 0.0
        total_area = self.extent.area()
        if total_area <= 0:
            return 1.0
        return min(max(overlap.area() / total_area, 0.0), 1.0)


class TableStatistics:
    """Per-table statistics bundle with selectivity estimation."""

    def __init__(self, table: Table, config: StatisticsConfig | None = None) -> None:
        self.config = config or StatisticsConfig()
        self.table_name = table.name
        self.n_rows = table.n_rows
        self._numeric: dict[str, NumericColumnStats] = {}
        self._text: dict[str, TextColumnStats] = {}
        self._spatial: dict[str, SpatialColumnStats] = {}
        for column in table.schema.columns:
            if column.kind.is_numeric:
                self._numeric[column.name] = NumericColumnStats(
                    table.numeric(column.name), self.config.histogram_buckets
                )
            elif column.kind is ColumnKind.TEXT:
                self._text[column.name] = TextColumnStats(
                    table.tokens(column.name),
                    self.config.mcv_size,
                    self.config.text_sample_rows,
                    self.config.default_token_selectivity,
                    self.config.seed,
                )
            elif column.kind is ColumnKind.POINT:
                self._spatial[column.name] = SpatialColumnStats(
                    table.points(column.name)
                )

    def estimate_selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of rows matching ``predicate``."""
        if isinstance(predicate, RangePredicate):
            stats = self._numeric.get(predicate.column)
            if stats is None:
                raise SchemaError(
                    f"no numeric statistics for {self.table_name}.{predicate.column}"
                )
            return stats.selectivity_range(predicate.low, predicate.high)
        if isinstance(predicate, EqualsPredicate):
            stats = self._numeric.get(predicate.column)
            if stats is None:
                raise SchemaError(
                    f"no numeric statistics for {self.table_name}.{predicate.column}"
                )
            return stats.selectivity_equals()
        if isinstance(predicate, KeywordPredicate):
            text_stats = self._text.get(predicate.column)
            if text_stats is None:
                raise SchemaError(
                    f"no text statistics for {self.table_name}.{predicate.column}"
                )
            return text_stats.selectivity_keyword(predicate.keyword)
        if isinstance(predicate, SpatialPredicate):
            spatial_stats = self._spatial.get(predicate.column)
            if spatial_stats is None:
                raise SchemaError(
                    f"no spatial statistics for {self.table_name}.{predicate.column}"
                )
            return spatial_stats.selectivity_box(predicate.box)
        raise SchemaError(f"unsupported predicate type: {type(predicate).__name__}")

    def estimate_conjunction(self, predicates: tuple[Predicate, ...]) -> float:
        """Selectivity of a conjunction under attribute independence."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.estimate_selectivity(predicate)
        return selectivity

    def estimate_rows(self, predicates: tuple[Predicate, ...]) -> float:
        return self.n_rows * self.estimate_conjunction(predicates)
