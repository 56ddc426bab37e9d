"""Grid-bucketed spatial index: the functional equivalent of an R-tree.

Points are assigned to fixed-size grid cells over the data's bounding box.
A box lookup gathers candidates from all intersecting cells, then filters
candidates from boundary cells exactly.  ``entries_scanned`` counts every
candidate examined (interior-cell points are accepted without an exact test,
boundary-cell points each cost one check) — the same access-path behaviour
an R-tree range query exhibits.
"""

from __future__ import annotations

import numpy as np

from ..predicates import Predicate, SpatialPredicate
from ..table import Table
from .base import Index, IndexLookup

_EMPTY = np.empty(0, dtype=np.int64)


class GridIndex(Index):
    """Spatial index over a POINT column."""

    kind = "rtree"

    def __init__(self, table: Table, column: str, grid_size: int = 64) -> None:
        super().__init__(table.name, column)
        if grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        self.grid_size = grid_size
        pts = table.points(column)
        if len(pts) == 0:
            # The empty extent holds no point: the first append rebuilds.
            self._min = np.full(2, np.inf)
            self._max = np.full(2, -np.inf)
            self._span = np.ones(2)
        else:
            self._min = pts.min(axis=0)
            self._max = pts.max(axis=0)
            span = self._max - self._min
            # Guard against degenerate (single-point) extents.
            self._span = np.where(span > 0, span, 1.0)
        self._cells: dict[tuple[int, int], np.ndarray] = {}
        self._absorb(pts, 0)

    def extend(self, table: Table, first_new: int) -> bool:
        """Bucket the new points into the existing grid geometry.

        The geometry (``_min``/``_span``) is a function of the data extent,
        so a point outside the current extent (any point, on an empty
        index) would move every cell boundary and with it
        ``entries_scanned``: those cases return ``False`` and the caller
        rebuilds.  Inside the extent the cells of old points do not move,
        and new ids are larger than every bucketed id, so concatenating
        them per touched cell keeps each cell ascending.
        """
        pts = table.points(self.column)
        fresh = pts[first_new:]
        if not (np.all(fresh >= self._min) and np.all(fresh <= self._max)):
            return False
        self._absorb(pts, first_new)
        return True

    def _absorb(self, pts: np.ndarray, first_new: int) -> None:
        """Index rows ``first_new..`` of ``pts`` under the current geometry."""
        self._points = pts
        self.n_entries = len(pts)
        # Batch-sweep accelerators (prefix sums + contiguous axis copies)
        # are built lazily on the first lookup_batch: per-request-only
        # deployments never pay their memory or construction cost.
        self._sweep_state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        fresh = pts[first_new:]
        if len(fresh) == 0:
            return
        cell_xy = self._cell_of(fresh)
        order = np.lexsort((cell_xy[:, 1], cell_xy[:, 0]))
        sorted_cells = cell_xy[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
        )
        starts = np.concatenate(([0], boundaries + 1))
        ends = np.concatenate((boundaries + 1, [len(fresh)]))
        for start, end in zip(starts, ends):
            cx, cy = sorted_cells[start]
            key = (int(cx), int(cy))
            ids = np.sort(order[start:end]).astype(np.int64) + first_new
            old = self._cells.get(key)
            self._cells[key] = ids if old is None else np.concatenate((old, ids))

    def _sweep_accelerators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(prefix, x, y) for the batched sweep, built on first use.

        ``prefix`` holds 2D inclusive prefix sums of per-cell entry counts,
        so a batch lookup charges ``entries_scanned`` for a whole cell
        rectangle in O(1) instead of walking the cells.  ``x``/``y`` are
        contiguous per-axis copies: the sweep broadcasts compares against
        them, and strided (n, 2) column views halve the throughput.
        """
        if self._sweep_state is None:
            counts = np.zeros((self.grid_size, self.grid_size), dtype=np.int64)
            for (cx, cy), ids in self._cells.items():
                counts[cx, cy] = len(ids)
            prefix = np.zeros(
                (self.grid_size + 1, self.grid_size + 1), dtype=np.int64
            )
            prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)
            self._sweep_state = (
                prefix,
                np.ascontiguousarray(self._points[:, 0]),
                np.ascontiguousarray(self._points[:, 1]),
            )
        return self._sweep_state

    def _cell_of(self, pts: np.ndarray) -> np.ndarray:
        scaled = (pts - self._min) / self._span * self.grid_size
        # Clip in float space first: query corners far outside the data
        # extent can overflow an int64 cast (inf -> garbage).
        scaled = np.clip(scaled, 0.0, self.grid_size - 1)
        return scaled.astype(np.int64)

    def supports(self, predicate: Predicate) -> bool:
        return isinstance(predicate, SpatialPredicate) and predicate.column == self.column

    def lookup(self, predicate: Predicate) -> IndexLookup:
        if not self.supports(predicate):
            raise self._reject(predicate)
        assert isinstance(predicate, SpatialPredicate)
        box = predicate.box
        if self.n_entries == 0:
            return IndexLookup(row_ids=_EMPTY, entries_scanned=0)

        corners = np.array([[box.min_x, box.min_y], [box.max_x, box.max_y]])
        cells = self._cell_of(corners)
        (cx0, cy0), (cx1, cy1) = cells
        accepted: list[np.ndarray] = []
        entries_scanned = 0
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                candidates = self._cells.get((cx, cy))
                if candidates is None:
                    continue
                entries_scanned += len(candidates)
                interior = cx0 < cx < cx1 and cy0 < cy < cy1
                if interior:
                    accepted.append(candidates)
                    continue
                pts = self._points[candidates]
                mask = (
                    (pts[:, 0] >= box.min_x)
                    & (pts[:, 0] <= box.max_x)
                    & (pts[:, 1] >= box.min_y)
                    & (pts[:, 1] <= box.max_y)
                )
                accepted.append(candidates[mask])
        if accepted:
            ids = np.sort(np.concatenate(accepted))
        else:
            ids = _EMPTY
        return IndexLookup(row_ids=ids, entries_scanned=entries_scanned)

    def entries_for(self, predicate: Predicate) -> int:
        """Entries a :meth:`lookup` would scan, from the 2D prefix sums.

        Counts every candidate in the box's covered cell rectangle — the
        exact ``entries_scanned`` the per-predicate walk reports — in O(1)
        after the first call builds the sweep accelerators.
        """
        if not self.supports(predicate):
            raise self._reject(predicate)
        assert isinstance(predicate, SpatialPredicate)
        if self.n_entries == 0:
            return 0
        box = predicate.box
        corners = np.array([[box.min_x, box.min_y], [box.max_x, box.max_y]])
        (cx0, cy0), (cx1, cy1) = self._cell_of(corners)
        prefix, _, _ = self._sweep_accelerators()
        return int(
            prefix[cx1 + 1, cy1 + 1]
            - prefix[cx0, cy1 + 1]
            - prefix[cx1 + 1, cy0]
            + prefix[cx0, cy0]
        )

    def lookup_batch(self, predicates: list[Predicate]) -> list[IndexLookup]:
        """One vectorized sweep answering many box predicates.

        ``row_ids`` are exact box matches (interior-cell candidates are
        provably inside the box, boundary cells are filtered exactly — the
        same invariant :meth:`lookup` relies on), so a broadcast compare of
        every point against every box reproduces them bit-identically.
        ``entries_scanned`` — every candidate in the covered cell rectangle
        — comes from the 2D prefix sums built at construction time.
        """
        for predicate in predicates:
            if not self.supports(predicate):
                raise self._reject(predicate)
        if not predicates:
            return []
        if self.n_entries == 0:
            return [IndexLookup(row_ids=_EMPTY, entries_scanned=0)] * len(predicates)

        boxes = np.array(
            [
                [p.box.min_x, p.box.min_y, p.box.max_x, p.box.max_y]
                for p in predicates
            ]
        )
        corners = np.stack([boxes[:, :2], boxes[:, 2:]], axis=1).reshape(-1, 2)
        cells = self._cell_of(corners).reshape(len(predicates), 2, 2)
        prefix, x, y = self._sweep_accelerators()
        lo_x, lo_y = cells[:, 0, 0], cells[:, 0, 1]
        hi_x, hi_y = cells[:, 1, 0] + 1, cells[:, 1, 1] + 1
        entries = (
            prefix[hi_x, hi_y]
            - prefix[lo_x, hi_y]
            - prefix[hi_x, lo_y]
            + prefix[lo_x, lo_y]
        )

        results: list[IndexLookup] = []
        chunk = max(1, 4_000_000 // max(self.n_entries, 1))
        for start in range(0, len(predicates), chunk):
            part = boxes[start : start + chunk]
            inside = (
                (x[None, :] >= part[:, 0, None])
                & (x[None, :] <= part[:, 2, None])
                & (y[None, :] >= part[:, 1, None])
                & (y[None, :] <= part[:, 3, None])
            )
            for offset in range(len(part)):
                ids = np.flatnonzero(inside[offset]).astype(np.int64)
                results.append(
                    IndexLookup(
                        row_ids=ids,
                        entries_scanned=int(entries[start + offset]),
                    )
                )
        return results
