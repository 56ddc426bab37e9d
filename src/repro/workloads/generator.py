"""Random query workload generation — the paper's Section 7.1 protocol.

For each query we sample a seed record from the base table and derive the
filter conditions from its values:

* **text** — a random non-stop token of the record's text,
* **timestamp** — a range whose *left boundary* is the record's value and
  whose length is ``max(L / 2^z, 1 day)`` for a random zoom level
  ``z ∈ [0, ceil(log2(L))]`` (L = full span in days),
* **point** — a bounding box centered on the record's point, the full extent
  scaled by ``1 / 2^z`` per axis for a random spatial zoom level,
* **numeric** — a range centered on the record's value with width
  ``range / 2^z``.

Join workloads additionally join ``users`` on the seed tweet's author and
filter on the author's activity.  Splitting follows the paper: half the
queries for evaluation; the training half is split 2/3 train : 1/3 validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db import (
    BinGroupBy,
    Database,
    JoinSpec,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SelectQuery,
    SpatialPredicate,
)
from ..db.types import STOP_WORDS, BoundingBox, days
from ..errors import WorkloadError

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class WorkloadSplit:
    """Train / validation / evaluation partition of a workload."""

    train: tuple[SelectQuery, ...]
    validation: tuple[SelectQuery, ...]
    evaluation: tuple[SelectQuery, ...]


def split_workload(
    queries: Sequence[SelectQuery],
    seed: int = 0,
    evaluation_fraction: float = 0.5,
    validation_fraction_of_train: float = 1.0 / 3.0,
) -> WorkloadSplit:
    """Random split following the paper's protocol."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(queries))
    n_eval = int(round(len(queries) * evaluation_fraction))
    eval_ids = order[:n_eval]
    rest = order[n_eval:]
    n_val = int(round(len(rest) * validation_fraction_of_train))
    val_ids = rest[:n_val]
    train_ids = rest[n_val:]
    pick = lambda ids: tuple(queries[i] for i in ids)  # noqa: E731
    return WorkloadSplit(
        train=pick(train_ids), validation=pick(val_ids), evaluation=pick(eval_ids)
    )


class _ZoomSampler:
    """Shared zoom-level machinery for range and box conditions.

    Zoom levels are sampled with geometrically decaying probability
    (``P(z) ∝ decay^z``): users look at wide views far more often than at
    maximally zoomed-in ones, which is also what keeps a realistic share of
    the workload hard (wide views → unselective conditions → few or no
    viable plans, as in the paper's Table 2).
    """

    def __init__(self, rng: np.random.Generator, decay: float = 0.7) -> None:
        if not 0.0 < decay <= 1.0:
            raise WorkloadError(f"zoom decay must be in (0, 1], got {decay}")
        self.rng = rng
        self.decay = decay

    def sample_zoom(self, max_zoom: int) -> int:
        weights = self.decay ** np.arange(max_zoom + 1)
        return int(self.rng.choice(max_zoom + 1, p=weights / weights.sum()))

    def time_range(
        self, left_value: float, span_days: float
    ) -> tuple[float, float]:
        max_zoom = max(1, math.ceil(math.log2(max(span_days, 2.0))))
        zoom = self.sample_zoom(max_zoom)
        length_days = max(span_days / (2**zoom), 1.0)
        return left_value, left_value + days(length_days)

    def centered_range(
        self, center: float, low: float, high: float, max_zoom: int = 12
    ) -> tuple[float, float]:
        span = max(high - low, 1e-9)
        zoom = self.sample_zoom(max_zoom)
        width = span / (2**zoom)
        return center - width / 2.0, center + width / 2.0

    def zoom_box(
        self, center_x: float, center_y: float, extent: BoundingBox, max_zoom: int = 8
    ) -> BoundingBox:
        zoom = self.sample_zoom(max_zoom)
        factor = 1.0 / (2**zoom)
        half_w = extent.width * factor / 2.0
        half_h = extent.height * factor / 2.0
        return BoundingBox(
            max(extent.min_x, center_x - half_w),
            max(extent.min_y, center_y - half_h),
            min(extent.max_x, center_x + half_w),
            min(extent.max_y, center_y + half_h),
        )


class QueryWorkloadGenerator:
    """Base generator: derives conditions from sampled seed records."""

    def __init__(
        self,
        database: Database,
        table: str,
        attributes: Sequence[str],
        output: Sequence[str],
        seed: int = 0,
        heatmap_fraction: float = 0.0,
        heatmap_cell: float = 0.5,
        zoom_decay: float = 0.7,
        keyword_frequency_bias: float = 1.0,
    ) -> None:
        self.database = database
        self.table = table
        self.attributes = tuple(attributes)
        self.output = tuple(output)
        self.heatmap_fraction = heatmap_fraction
        self.heatmap_cell = heatmap_cell
        #: Exponent applied to document frequencies when picking the keyword
        #: among a seed record's tokens: > 0 favours trending/popular words
        #: (what users actually search), 0 picks uniformly.
        self.keyword_frequency_bias = keyword_frequency_bias
        self.rng = np.random.default_rng(seed)
        self.zoom = _ZoomSampler(self.rng, decay=zoom_decay)
        storage = database.table(table)
        for attribute in self.attributes:
            if not storage.schema.has_column(attribute):
                raise WorkloadError(
                    f"table {table!r} has no attribute {attribute!r}"
                )

    # ------------------------------------------------------------------
    def generate(self, n_queries: int) -> list[SelectQuery]:
        queries: list[SelectQuery] = []
        attempts = 0
        while len(queries) < n_queries:
            attempts += 1
            if attempts > n_queries * 50:
                raise WorkloadError("workload generation is not converging")
            query = self._generate_one()
            if query is not None:
                queries.append(query)
        return queries

    def _generate_one(self) -> SelectQuery | None:
        table = self.database.table(self.table)
        row = int(self.rng.integers(0, table.n_rows))
        predicates: list[Predicate] = []
        for attribute in self.attributes:
            predicate = self._condition_for(attribute, row)
            if predicate is None:
                return None
            predicates.append(predicate)
        return self._assemble(tuple(predicates), row)

    def _assemble(
        self, predicates: tuple[Predicate, ...], seed_row: int
    ) -> SelectQuery:
        if self.heatmap_fraction and self.rng.random() < self.heatmap_fraction:
            point_attr = self._point_attribute()
            if point_attr is not None:
                return SelectQuery(
                    table=self.table,
                    predicates=predicates,
                    group_by=BinGroupBy(point_attr, self.heatmap_cell, self.heatmap_cell),
                )
        return SelectQuery(table=self.table, predicates=predicates, output=self.output)

    def _point_attribute(self) -> str | None:
        schema = self.database.table(self.table).schema
        for attribute in self.attributes:
            if schema.kind_of(attribute).name == "POINT":
                return attribute
        return None

    def _pick_keyword(self, attribute: str, tokens: list[str]) -> str:
        """Pick the keyword among a record's tokens, favouring popular ones."""
        if self.keyword_frequency_bias <= 0 or len(tokens) == 1:
            return tokens[int(self.rng.integers(0, len(tokens)))]
        index = self.database.index(self.table, attribute)
        doc_freq = getattr(index, "document_frequency", None)
        if doc_freq is None:
            return tokens[int(self.rng.integers(0, len(tokens)))]
        weights = np.array(
            [max(1.0, doc_freq(t)) ** self.keyword_frequency_bias for t in tokens]
        )
        return tokens[int(self.rng.choice(len(tokens), p=weights / weights.sum()))]

    # ------------------------------------------------------------------
    def _condition_for(self, attribute: str, row: int) -> Predicate | None:
        table = self.database.table(self.table)
        kind = table.schema.kind_of(attribute).name
        if kind == "TEXT":
            # Sorted, so the keyword draw depends on the row's tokens alone
            # (workloads must be reproducible from the generator seed).
            tokens = sorted(
                t
                for t in table.tokens(attribute).row_tokens(row)
                if t not in STOP_WORDS
            )
            if not tokens:
                return None
            return KeywordPredicate(attribute, self._pick_keyword(attribute, tokens))
        if kind == "TIMESTAMP":
            values = table.numeric(attribute)
            span_days = (float(values.max()) - float(values.min())) / SECONDS_PER_DAY
            low, high = self.zoom.time_range(float(values[row]), span_days)
            return RangePredicate(attribute, low, high)
        if kind == "POINT":
            points = table.points(attribute)
            extent = BoundingBox(
                float(points[:, 0].min()),
                float(points[:, 1].min()),
                float(points[:, 0].max()),
                float(points[:, 1].max()),
            )
            box = self.zoom.zoom_box(
                float(points[row, 0]), float(points[row, 1]), extent
            )
            return SpatialPredicate(attribute, box)
        # INT / FLOAT
        values = table.numeric(attribute)
        low, high = self.zoom.centered_range(
            float(values[row]), float(values.min()), float(values.max())
        )
        return RangePredicate(attribute, low, high)


class TwitterWorkloadGenerator(QueryWorkloadGenerator):
    """Single-table tweet workloads (3, 4, or 5 filter attributes)."""

    def __init__(
        self,
        database: Database,
        attributes: Sequence[str] = ("text", "created_at", "coordinates"),
        seed: int = 0,
        heatmap_fraction: float = 0.0,
        zoom_decay: float = 0.7,
        keyword_frequency_bias: float = 1.0,
    ) -> None:
        super().__init__(
            database,
            table="tweets",
            attributes=attributes,
            output=("id", "coordinates"),
            seed=seed,
            heatmap_fraction=heatmap_fraction,
            zoom_decay=zoom_decay,
            keyword_frequency_bias=keyword_frequency_bias,
        )


class TwitterJoinWorkloadGenerator(QueryWorkloadGenerator):
    """Join workloads: tweets ⋈ users with a filter on the author (§7.5)."""

    def __init__(
        self,
        database: Database,
        attributes: Sequence[str] = ("text", "created_at", "coordinates"),
        seed: int = 0,
        inner_zoom_max: int = 10,
        zoom_decay: float = 0.7,
        keyword_frequency_bias: float = 1.0,
    ) -> None:
        super().__init__(
            database,
            table="tweets",
            attributes=attributes,
            output=("id", "coordinates"),
            seed=seed,
            zoom_decay=zoom_decay,
            keyword_frequency_bias=keyword_frequency_bias,
        )
        self.inner_zoom_max = inner_zoom_max

    def _assemble(
        self, predicates: tuple[Predicate, ...], seed_row: int
    ) -> SelectQuery:
        tweets = self.database.table("tweets")
        users = self.database.table("users")
        author = int(tweets.numeric("user_id")[seed_row])
        activity = users.numeric("tweet_cnt")
        # Locate the author's activity for a realistic centered condition.
        author_row = int(np.flatnonzero(users.numeric("id") == author)[0])
        low, high = self.zoom.centered_range(
            float(activity[author_row]),
            float(activity.min()),
            float(activity.max()),
            max_zoom=self.inner_zoom_max,
        )
        join = JoinSpec(
            table="users",
            left_column="user_id",
            right_column="id",
            predicates=(RangePredicate("tweet_cnt", max(0.0, low), high),),
        )
        return SelectQuery(
            table=self.table,
            predicates=predicates,
            output=self.output,
            join=join,
        )


class TaxiWorkloadGenerator(QueryWorkloadGenerator):
    """NYC-taxi workloads: datetime, distance, and pickup-box conditions."""

    def __init__(
        self, database: Database, seed: int = 0, zoom_decay: float = 0.7
    ) -> None:
        super().__init__(
            database,
            table="trips",
            attributes=("pickup_datetime", "trip_distance", "pickup_coordinates"),
            output=("id", "pickup_coordinates"),
            seed=seed,
            zoom_decay=zoom_decay,
        )


class TpchWorkloadGenerator(QueryWorkloadGenerator):
    """TPC-H lineitem workloads: three numeric/temporal range conditions."""

    def __init__(
        self, database: Database, seed: int = 0, zoom_decay: float = 0.7
    ) -> None:
        super().__init__(
            database,
            table="lineitem",
            attributes=("extended_price", "ship_date", "receipt_date"),
            output=("quantity", "discount"),
            seed=seed,
            zoom_decay=zoom_decay,
        )
