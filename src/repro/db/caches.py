"""Instrumented caches shared by the engine's cross-request reuse layer.

The serving layer (``repro.serving``) answers long request streams against
one :class:`~repro.db.database.Database`; the caches here are what turn that
stream into sublinear work.  Each cache

* counts hits / misses / invalidations (:class:`CacheStats`), so hit rates
  can be surfaced through ``ExecutionResult`` and the service's throughput
  reports, and
* supports *targeted invalidation*: every entry is tagged with the table
  names it was derived from, and :meth:`InstrumentedCache.invalidate_tag`
  drops exactly the entries a table mutation poisons.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (mutable, cheap to snapshot)."""

    name: str
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.name, self.hits, self.misses, self.invalidations)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since a :meth:`snapshot`."""
        return CacheStats(
            self.name,
            self.hits - since.hits,
            self.misses - since.misses,
            self.invalidations - since.invalidations,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass(slots=True)
class _Entry:
    value: object
    tags: tuple[str, ...] = ()


class InstrumentedCache:
    """LRU cache with hit counters and tag-based (per-table) invalidation.

    ``capacity=None`` means unbounded — used for caches whose key space is
    already bounded by the catalog (e.g. one entry per (table, column)).
    """

    def __init__(self, name: str, capacity: int | None = None) -> None:
        self.stats = CacheStats(name)
        self._capacity = capacity
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
        self._data[key] = _Entry(value, tuple(tags))
        self._data.move_to_end(key)
        if self._capacity is not None:
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    def invalidate_tag(self, tag: str) -> int:
        """Drop every entry tagged with ``tag``; returns how many."""
        doomed = [key for key, entry in self._data.items() if tag in entry.tags]
        for key in doomed:
            del self._data[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self.stats.invalidations += len(self._data)
        self._data.clear()

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
