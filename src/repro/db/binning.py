"""Spatial BIN_ID computation shared by the executor and the viz layer.

``BIN_ID(column)`` assigns each point to a fixed-size rectangular cell and
returns a single integer id per cell, matching the paper's heatmap queries
(``GROUP BY BIN_ID(Location)``).  Cell ids are stable across queries with the
same cell size, so results of original and rewritten queries are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .query import BinGroupBy

#: Global origin for bin grids (covers geographic coordinates comfortably).
BIN_ORIGIN_X = -180.0
BIN_ORIGIN_Y = -90.0
#: Stride multiplier packing (ix, iy) into one integer id.
_BIN_STRIDE = 1 << 20


def compute_bin_ids(points: np.ndarray, group_by: BinGroupBy) -> np.ndarray:
    """Integer bin id for each point in an ``(n, 2)`` array."""
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    ix = np.floor((points[:, 0] - BIN_ORIGIN_X) / group_by.cell_x).astype(np.int64)
    iy = np.floor((points[:, 1] - BIN_ORIGIN_Y) / group_by.cell_y).astype(np.int64)
    return ix * _BIN_STRIDE + iy


def bin_counts(
    points: np.ndarray, group_by: BinGroupBy, weight: float = 1.0
) -> dict[int, float]:
    """Histogram of bin ids -> (weighted) counts."""
    if len(points) == 0:
        return {}
    ids = compute_bin_ids(points, group_by)
    unique, counts = np.unique(ids, return_counts=True)
    return {int(b): float(c) * weight for b, c in zip(unique, counts)}


@dataclass(frozen=True)
class BinLayout:
    """Precomputed binning of one POINT column under one cell size.

    ``bin_ids`` is the ascending array of bin ids present in the column and
    ``codes`` maps every row to its position in ``bin_ids``.  Because
    :func:`compute_bin_ids` is elementwise, ``bin_ids[codes[rows]]`` equals
    the bin ids :func:`bin_counts` would derive from the gathered points —
    which is what lets a batch of queries share one layout and still produce
    bit-identical histograms.
    """

    bin_ids: np.ndarray
    codes: np.ndarray

    @property
    def n_bins(self) -> int:
        return int(len(self.bin_ids))


def build_bin_layout(points: np.ndarray, group_by: BinGroupBy) -> BinLayout:
    """Bin every row of a column once, for reuse across queries."""
    if len(points) == 0:
        return BinLayout(
            bin_ids=np.empty(0, dtype=np.int64), codes=np.empty(0, dtype=np.int64)
        )
    ids = compute_bin_ids(points, group_by)
    bin_ids, codes = np.unique(ids, return_inverse=True)
    return BinLayout(bin_ids=bin_ids, codes=codes.astype(np.int64))


def bin_counts_many(
    layout: BinLayout, id_arrays: list[np.ndarray], weight: float = 1.0
) -> list[dict[int, float]]:
    """Histogram many row-id selections in one fused sweep.

    Element-wise identical to ``bin_counts(points[ids], group_by, weight)``
    per array: each selection's codes are offset into a disjoint segment,
    one ``np.unique`` counts them all, and the per-segment slices come back
    in ascending bin order exactly as the per-query path produces them.
    """
    lengths = [len(ids) for ids in id_arrays]
    if sum(lengths) == 0 or layout.n_bins == 0:
        return [{} for _ in id_arrays]
    segments = np.repeat(np.arange(len(id_arrays), dtype=np.int64), lengths)
    gathered = np.concatenate(
        [layout.codes[ids] for ids in id_arrays if len(ids)]
    )
    combined = segments * layout.n_bins + gathered
    values, counts = np.unique(combined, return_counts=True)
    owners = values // layout.n_bins
    bins = layout.bin_ids[values % layout.n_bins].tolist()
    weighted = (counts.astype(np.float64) * weight).tolist()
    # Segment k's bins are values[cuts[k]:cuts[k + 1]] (owners ascend).
    cuts = np.searchsorted(owners, np.arange(len(id_arrays) + 1)).tolist()
    return [dict(zip(bins[a:b], weighted[a:b])) for a, b in zip(cuts, cuts[1:])]


def bin_center(bin_id: int, group_by: BinGroupBy) -> tuple[float, float]:
    """Geographic center of a bin (used when rendering heatmaps)."""
    ix, iy = divmod(bin_id, _BIN_STRIDE)
    return (
        BIN_ORIGIN_X + (ix + 0.5) * group_by.cell_x,
        BIN_ORIGIN_Y + (iy + 0.5) * group_by.cell_y,
    )
