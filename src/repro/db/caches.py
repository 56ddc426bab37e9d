"""Instrumented caches shared by the engine's cross-request reuse layer.

The serving layer (``repro.serving``) answers long request streams against
one :class:`~repro.db.database.Database`; the caches here are what turn that
stream into sublinear work.  Each cache

* counts hits / misses / invalidations (:class:`CacheStats`), so hit rates
  can be surfaced through ``ExecutionResult`` and the service's throughput
  reports, and
* supports *targeted invalidation*: every entry is tagged with the table
  names it was derived from, and :meth:`InstrumentedCache.invalidate_tag`
  drops exactly the entries a table mutation poisons, and
* is bounded either by entry count (scalar-valued caches) or by the summed
  ``nbytes`` of its values (array-valued caches), evicting LRU-first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (mutable, cheap to snapshot).

    ``entries`` and ``bytes_held`` are gauges of what the cache holds now,
    not counters; ``bytes_held`` is only measured on byte-budgeted caches
    (0 on entry-capped ones, whose values report no size).
    """

    name: str
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes_held: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since a :meth:`snapshot` (gauges as of now)."""
        return replace(
            self,
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            invalidations=self.invalidations - since.invalidations,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "entries": self.entries,
            "bytes_held": self.bytes_held,
        }


@dataclass(slots=True)
class _Entry:
    value: object
    tags: tuple[str, ...] = ()
    nbytes: int = 0


class InstrumentedCache:
    """LRU cache with hit counters and tag-based (per-table) invalidation.

    Bounded by ``capacity`` entries, or — for caches whose values report
    their size as ``nbytes`` (``RowSet``, ``IndexLookup``) — by
    ``budget_bytes`` summed over the values held.  A value's size is read
    once, at :meth:`put`, so values must not grow while cached.  With
    neither bound the cache is unbounded.
    """

    def __init__(
        self,
        name: str,
        capacity: int | None = None,
        *,
        budget_bytes: int | None = None,
    ) -> None:
        self.stats = CacheStats(name)
        self._capacity = capacity
        self._budget_bytes = budget_bytes
        self._data: OrderedDict[Hashable, _Entry] = OrderedDict()

    def get(self, key: Hashable):
        entry = self._data.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def peek(self, key: Hashable):
        """Like :meth:`get` but without touching the counters or LRU order."""
        entry = self._data.get(key)
        return None if entry is None else entry.value

    def put(self, key: Hashable, value, tags: Iterable[str] = ()) -> None:
        nbytes = int(value.nbytes) if self._budget_bytes is not None else 0
        self._drop(key)
        self._data[key] = _Entry(value, tuple(tags), nbytes)
        self.stats.bytes_held += nbytes
        capacity, budget = self._capacity, self._budget_bytes
        while (capacity is not None and len(self._data) > capacity) or (
            budget is not None and self.stats.bytes_held > budget
        ):
            self._drop(next(iter(self._data)))
        self.stats.entries = len(self._data)

    def invalidate_tag(self, tag: str) -> int:
        """Drop every entry tagged with ``tag``; returns how many."""
        doomed = [key for key, entry in self._data.items() if tag in entry.tags]
        for key in doomed:
            self._drop(key)
        self.stats.invalidations += len(doomed)
        self.stats.entries = len(self._data)
        return len(doomed)

    def clear(self) -> None:
        self.stats.invalidations += len(self._data)
        self._data.clear()
        self.stats.entries = self.stats.bytes_held = 0

    def _drop(self, key: Hashable) -> None:
        entry = self._data.pop(key, None)
        if entry is not None:
            self.stats.bytes_held -= entry.nbytes

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


@dataclass
class CacheStatsReport:
    """Bundle of engine-cache stats, JSON-serializable for reports."""

    caches: tuple[CacheStats, ...] = field(default_factory=tuple)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.caches)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.caches)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {c.name: c.to_dict() for c in self.caches}
