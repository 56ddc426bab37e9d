"""RowSet: a sorted-array / bitmap representation of matching rows.

Every selection primitive in the engine ultimately produces "the set of row
ids of one table matching a condition".  The seed implementation shuttled
these around as sorted ``np.ndarray``s and combined them with chains of
``np.intersect1d`` — O(n log n) per pair and allocation-heavy.  A
:class:`RowSet` holds one or both natural representations:

* ``ids``  — sorted ascending ``int64`` row ids (what indexes produce and
  the executor's LIMIT/ordering logic consumes), and
* ``mask`` — a boolean bitmap over the table's row space (what
  :meth:`~repro.db.predicates.Predicate.mask` produces and what makes
  intersection a vectorized ``&``).

Intersection picks the cheapest strategy for the operands at hand: bitmap
AND when both bitmaps exist, bitmap probing (``ids[mask[ids]]``) when one
side has a bitmap, and a sorted merge (``np.intersect1d``) only as the
fallback for two pure id lists.  Whichever path runs, the result is
identical to ``np.intersect1d`` on the id arrays — ``tests/db/test_rowset.py``
asserts this property over random sets.

RowSets are immutable value objects: which arrays one holds is fixed at
construction, and asking for a representation it does not hold derives a
fresh array without keeping it.  That is what lets a cache bound its bytes:
the :class:`~repro.db.database.Database` match cache keeps the
:meth:`compact` form (one array), while a batch that intersects a set many
times keeps :meth:`with_mask` (both arrays) for the batch's lifetime only.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

import numpy as np


class RowSet:
    """An immutable set of row ids within a table of ``universe`` rows."""

    __slots__ = ("universe", "_ids", "_mask", "_len")

    def __init__(
        self,
        universe: int,
        *,
        ids: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> None:
        if ids is None and mask is None:
            raise ValueError("RowSet needs at least one representation")
        self.universe = int(universe)
        self._ids = ids
        self._mask = mask
        self._len = int(len(ids)) if ids is not None else int(np.count_nonzero(mask))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ids(cls, ids: np.ndarray, universe: int, *, sorted_unique: bool = True) -> "RowSet":
        """Wrap an id array; pass ``sorted_unique=False`` to normalize first."""
        arr = np.asarray(ids, dtype=np.int64)
        if not sorted_unique:
            arr = np.unique(arr)
        return cls(universe, ids=arr)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "RowSet":
        arr = np.asarray(mask, dtype=bool)
        return cls(len(arr), mask=arr)

    @classmethod
    def full(cls, universe: int) -> "RowSet":
        return cls(universe, ids=np.arange(universe, dtype=np.int64))

    @classmethod
    def empty(cls, universe: int) -> "RowSet":
        return cls(universe, ids=np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        """Sorted ascending row ids (derived from the bitmap if not held)."""
        if self._ids is not None:
            return self._ids
        return np.flatnonzero(self._mask).astype(np.int64, copy=False)

    @property
    def mask(self) -> np.ndarray:
        """Boolean bitmap over the row space (derived from the ids if not held)."""
        if self._mask is not None:
            return self._mask
        mask = np.zeros(self.universe, dtype=bool)
        mask[self._ids] = True
        return mask

    def with_mask(self) -> "RowSet":
        """This set holding its bitmap too, for O(rows) intersections.

        Costs one byte per table row on top of the ids: what a batch keeps
        while it intersects the set many times, never what a cache keeps.
        """
        if self._mask is not None:
            return self
        return RowSet(self.universe, ids=self._ids, mask=self.mask)

    def compact(self) -> "RowSet":
        """This set holding only its smaller representation.

        The bitmap costs ``universe`` bytes and the ids ``8·len``; the
        bitmap is kept when ``8·len > universe``, the ids otherwise.
        """
        if 8 * self._len > self.universe:
            return self if self._ids is None else RowSet(self.universe, mask=self.mask)
        return self if self._mask is None else RowSet(self.universe, ids=self.ids)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this set holds."""
        return sum(int(a.nbytes) for a in (self._ids, self._mask) if a is not None)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "RowSet") -> "RowSet":
        """Exact intersection, via the cheapest strategy for the operands."""
        if self.universe != other.universe:
            raise ValueError(
                f"cannot intersect RowSets over universes "
                f"{self.universe} != {other.universe}"
            )
        if self._mask is not None and other._mask is not None:
            return RowSet(self.universe, mask=self._mask & other._mask)
        if self._mask is not None and other._ids is not None:
            ids = other._ids
            return RowSet(self.universe, ids=ids[self._mask[ids]])
        if other._mask is not None and self._ids is not None:
            ids = self._ids
            return RowSet(self.universe, ids=ids[other._mask[ids]])
        assert self._ids is not None and other._ids is not None
        return RowSet(
            self.universe,
            ids=np.intersect1d(self._ids, other._ids, assume_unique=True),
        )

    def __and__(self, other: "RowSet") -> "RowSet":
        return self.intersect(other)

    def contains(self, row_ids: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an arbitrary id array."""
        return self.mask[np.asarray(row_ids, dtype=np.int64)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RowSet({len(self)}/{self.universe})"


def intersect_all(rowsets: Iterable[RowSet]) -> RowSet:
    """Intersection of one or more RowSets (raises on an empty iterable)."""
    sets = list(rowsets)
    if not sets:
        raise ValueError("intersect_all needs at least one RowSet")
    return reduce(RowSet.intersect, sets)
