"""Fused selectivity counting shared by the sampling and accurate QTEs.

Both estimators answer batches of same-attribute predicates against one
table — the sampling QTE against its sample, the accurate QTE against the
full base table.  One vectorized sweep per (predicate kind, column) group
replaces one engine round-trip per predicate; the counts are computed with
exactly the predicate-mask comparisons, so memoized selectivities are
bit-identical to the sequential paths.
"""

from __future__ import annotations

import numpy as np

from ..db.predicates import (
    EqualsPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SpatialPredicate,
)


def fused_predicate_counts(
    table, kind: type, column: str, group: list[Predicate]
) -> np.ndarray:
    """Matching-row counts for same-attribute predicates, one table pass."""
    if kind is RangePredicate:
        values = table.numeric(column)
        lows = np.array([-np.inf if p.low is None else p.low for p in group])
        highs = np.array([np.inf if p.high is None else p.high for p in group])
        hit = (values >= lows[:, None]) & (values <= highs[:, None])
        return hit.sum(axis=1)
    if kind is EqualsPredicate:
        values = table.numeric(column)
        targets = np.array([p.value for p in group])
        return (values == targets[:, None]).sum(axis=1)
    if kind is SpatialPredicate:
        pts = table.points(column)
        boxes = np.array(
            [(p.box.min_x, p.box.max_x, p.box.min_y, p.box.max_y) for p in group]
        )
        hit = (
            (pts[:, 0] >= boxes[:, 0:1])
            & (pts[:, 0] <= boxes[:, 1:2])
            & (pts[:, 1] >= boxes[:, 2:3])
            & (pts[:, 1] <= boxes[:, 3:4])
        )
        return hit.sum(axis=1)
    if kind is KeywordPredicate:
        packed = table.tokens(column)
        counts = packed.document_counts()
        token_ids = [packed.token_id(p.keyword) for p in group]
        return np.array(
            [0 if t is None else int(counts[t]) for t in token_ids], dtype=np.int64
        )
    # Unknown predicate kinds fall back to exact per-predicate masks.
    return np.array([int(p.mask(table).sum()) for p in group])
