"""Filter predicates: the conjunctive selection conditions of a query.

Each predicate knows how to evaluate itself *exactly* against a table
(:meth:`Predicate.mask`), independent of any index.  The executor uses
indexes to obtain the same answer faster; tests assert the two agree.

Predicates are immutable and hashable via :meth:`key`, which is what the
selectivity cache, statistics, and memoization layers key on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from .rowset import RowSet
from .table import Table
from .types import BoundingBox, tokenize


class Predicate(ABC):
    """A single selection condition on one column."""

    column: str

    @abstractmethod
    def mask(self, table: Table) -> np.ndarray:
        """Exact boolean mask of matching rows (reference semantics)."""

    def key(self) -> tuple:
        """Hashable identity of this predicate (used for caching).

        Computed once per (immutable) instance: every cache in the stack —
        match/lookup caches, selectivity memos, statistics estimates — keys
        on it, several times per MDP step.  Subclasses implement
        :meth:`_compute_key` (or override ``key`` wholesale).
        """
        try:
            return object.__getattribute__(self, "_cached_key")
        except AttributeError:
            pass
        key = self._compute_key()
        object.__setattr__(self, "_cached_key", key)
        return key

    def _compute_key(self) -> tuple:
        raise NotImplementedError

    @abstractmethod
    def render_sql(self) -> str:
        """Human-readable SQL fragment for docs and debugging."""

    def matching_ids(self, table: Table) -> np.ndarray:
        """Row ids (sorted, ascending) matching this predicate."""
        return self.matching_rowset(table).ids

    def matching_rowset(self, table: Table) -> RowSet:
        """Matching rows as a :class:`~repro.db.rowset.RowSet`.

        The default wraps :meth:`mask` directly (the bitmap representation
        is free here); the id representation materializes lazily only if a
        consumer needs it.
        """
        return RowSet.from_mask(self.mask(table))

    def __hash__(self) -> int:
        return hash(self.key())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.key() == other.key()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.render_sql()


@dataclass(frozen=True, eq=False)
class KeywordPredicate(Predicate):
    """``column CONTAINS keyword`` over tokenized text."""

    column: str
    keyword: str

    def __post_init__(self) -> None:
        tokens = tokenize(self.keyword)
        if len(tokens) != 1:
            raise QueryError(
                f"keyword predicate requires a single token, got {self.keyword!r}"
            )
        object.__setattr__(self, "keyword", tokens[0])

    def mask(self, table: Table) -> np.ndarray:
        return table.tokens(self.column).contains(self.keyword)

    def _compute_key(self) -> tuple:
        return ("keyword", self.column, self.keyword)

    def render_sql(self) -> str:
        # Tokens may contain apostrophes ("don't"); escape SQL-style so
        # parse_sql can round-trip the literal.
        escaped = self.keyword.replace("'", "''")
        return f"{self.column} CONTAINS '{escaped}'"


@dataclass(frozen=True, eq=False)
class RangePredicate(Predicate):
    """``low <= column <= high`` on a numeric or timestamp column."""

    column: str
    low: float | None
    high: float | None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise QueryError(f"range predicate on {self.column!r} is unbounded")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise QueryError(
                f"range predicate on {self.column!r}: low {self.low} > high {self.high}"
            )

    def mask(self, table: Table) -> np.ndarray:
        values = table.numeric(self.column)
        mask = np.ones(len(values), dtype=bool)
        if self.low is not None:
            mask &= values >= self.low
        if self.high is not None:
            mask &= values <= self.high
        return mask

    def _compute_key(self) -> tuple:
        return ("range", self.column, self.low, self.high)

    def render_sql(self) -> str:
        low = "-inf" if self.low is None else repr(float(self.low))
        high = "+inf" if self.high is None else repr(float(self.high))
        return f"{self.column} BETWEEN {low} AND {high}"


@dataclass(frozen=True, eq=False)
class SpatialPredicate(Predicate):
    """``column IN box`` on a POINT column."""

    column: str
    box: BoundingBox

    def mask(self, table: Table) -> np.ndarray:
        pts = table.points(self.column)
        return (
            (pts[:, 0] >= self.box.min_x)
            & (pts[:, 0] <= self.box.max_x)
            & (pts[:, 1] >= self.box.min_y)
            & (pts[:, 1] <= self.box.max_y)
        )

    def _compute_key(self) -> tuple:
        return (
            "spatial",
            self.column,
            self.box.min_x,
            self.box.min_y,
            self.box.max_x,
            self.box.max_y,
        )

    def render_sql(self) -> str:
        return (
            f"{self.column} IN (({self.box.min_x!r}, {self.box.min_y!r}), "
            f"({self.box.max_x!r}, {self.box.max_y!r}))"
        )


@dataclass(frozen=True, eq=False)
class EqualsPredicate(Predicate):
    """``column = value`` on a numeric column (used for key lookups)."""

    column: str
    value: float

    def mask(self, table: Table) -> np.ndarray:
        return table.numeric(self.column) == self.value

    def _compute_key(self) -> tuple:
        return ("equals", self.column, self.value)

    def render_sql(self) -> str:
        return f"{self.column} = {float(self.value)!r}"


def predicates_on(predicates: tuple[Predicate, ...], columns: set[str]) -> tuple[Predicate, ...]:
    """Subset of ``predicates`` whose column is in ``columns``."""
    return tuple(p for p in predicates if p.column in columns)
