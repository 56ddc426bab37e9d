"""Sorted-array index: the functional equivalent of a B+-tree.

Keys are kept in a sorted numpy array alongside the permutation of row ids,
so a range lookup is two binary searches plus a slice — O(log n + k), the
same asymptotics as a B+-tree range scan, with k "entries scanned" reported
for cost accounting.
"""

from __future__ import annotations

import numpy as np

from ..predicates import EqualsPredicate, Predicate, RangePredicate
from ..table import Table
from .base import Index, IndexLookup


class SortedIndex(Index):
    """B+-tree equivalent over a numeric or timestamp column."""

    kind = "btree"

    def __init__(self, table: Table, column: str) -> None:
        super().__init__(table.name, column)
        self._sorted_values = table.numeric(column)[:0]
        self._row_ids = np.empty(0, dtype=np.int64)
        self.n_entries = 0
        self.extend(table, 0)

    def extend(self, table: Table, first_new: int) -> bool:
        """Merge the stably sorted new keys in.  A stable sort of the grown
        column puts a new key after every old key it ties with (its row id
        is larger), which is the slot ``side="right"`` finds; ``np.insert``
        keeps new keys that share a slot in their given, stable order."""
        fresh = table.numeric(self.column)[first_new:]
        order = np.argsort(fresh, kind="stable")
        keys = fresh[order]
        slots = np.searchsorted(self._sorted_values, keys, side="right")
        self._sorted_values = np.insert(self._sorted_values, slots, keys)
        self._row_ids = np.insert(
            self._row_ids, slots, order.astype(np.int64) + first_new
        )
        self.n_entries = table.n_rows
        return True

    def supports(self, predicate: Predicate) -> bool:
        return (
            isinstance(predicate, (RangePredicate, EqualsPredicate))
            and predicate.column == self.column
        )

    def lookup(self, predicate: Predicate) -> IndexLookup:
        if isinstance(predicate, RangePredicate) and predicate.column == self.column:
            return self._range(predicate.low, predicate.high)
        if isinstance(predicate, EqualsPredicate) and predicate.column == self.column:
            return self._range(predicate.value, predicate.value)
        raise self._reject(predicate)

    def lookup_batch(self, predicates: list[Predicate]) -> list[IndexLookup]:
        """Batched range probe: both binary-search ends for every predicate
        in two vectorized ``searchsorted`` calls, then one slice-sort each
        (the sorted output IS the result, so that part cannot be shared)."""
        bounds: list[tuple[float | None, float | None]] = []
        for predicate in predicates:
            if isinstance(predicate, RangePredicate) and predicate.column == self.column:
                bounds.append((predicate.low, predicate.high))
            elif (
                isinstance(predicate, EqualsPredicate)
                and predicate.column == self.column
            ):
                bounds.append((predicate.value, predicate.value))
            else:
                raise self._reject(predicate)
        if not bounds:
            return []
        lows = np.array([0.0 if lo is None else lo for lo, _ in bounds])
        highs = np.array([0.0 if hi is None else hi for _, hi in bounds])
        lo_pos = np.where(
            [lo is None for lo, _ in bounds],
            0,
            np.searchsorted(self._sorted_values, lows, side="left"),
        )
        hi_pos = np.where(
            [hi is None for _, hi in bounds],
            self.n_entries,
            np.searchsorted(self._sorted_values, highs, side="right"),
        )
        return [
            IndexLookup(
                row_ids=np.sort(self._row_ids[lo:hi]), entries_scanned=max(0, hi - lo)
            )
            for lo, hi in zip(lo_pos.tolist(), hi_pos.tolist())
        ]

    def _range(self, low: float | None, high: float | None) -> IndexLookup:
        lo_pos = (
            0
            if low is None
            else int(np.searchsorted(self._sorted_values, low, side="left"))
        )
        hi_pos = (
            self.n_entries
            if high is None
            else int(np.searchsorted(self._sorted_values, high, side="right"))
        )
        ids = np.sort(self._row_ids[lo_pos:hi_pos])
        return IndexLookup(row_ids=ids, entries_scanned=len(ids))

    def entries_for(self, predicate: Predicate) -> int:
        """Entries a :meth:`lookup` would scan (= matches), via two searches."""
        if isinstance(predicate, RangePredicate) and predicate.column == self.column:
            return self.count_range(predicate.low, predicate.high)
        if isinstance(predicate, EqualsPredicate) and predicate.column == self.column:
            return self.count_range(predicate.value, predicate.value)
        raise self._reject(predicate)

    def count_range(self, low: float | None, high: float | None) -> int:
        """Cardinality of a range without materializing row ids."""
        lo_pos = (
            0
            if low is None
            else int(np.searchsorted(self._sorted_values, low, side="left"))
        )
        hi_pos = (
            self.n_entries
            if high is None
            else int(np.searchsorted(self._sorted_values, high, side="right"))
        )
        return max(0, hi_pos - lo_pos)
