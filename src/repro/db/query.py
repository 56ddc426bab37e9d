"""The query AST: select queries, hints, joins, binning, approximation rules.

A :class:`SelectQuery` models the middleware-generated SQL of the paper:
conjunctive filter conditions over one table (optionally equi-joined with a
second table), an output projection, and optionally a spatial GROUP BY
``BIN_ID(column)`` aggregation for heatmaps.

A *rewritten query* (Definition 2.2) is produced by applying a rewriting
option — a :class:`HintSet` plus zero or more :class:`ApproximationRule`\\ s —
to an original query, see :func:`apply_hints` and the rules' ``apply``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..errors import QueryError
from .predicates import Predicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

JOIN_METHODS = ("nestloop", "hash", "merge")


@dataclass(frozen=True)
class HintSet:
    """Query hints: which indexes to use, and which join method.

    ``index_on`` is the exact set of filter attributes whose index the
    database is instructed to use; every other applicable index is
    instructed *not* to be used (this matches the paper's
    use-or-not-use-per-attribute hint space of size 2^m).
    ``join_method`` forces the physical join algorithm, if the query joins.
    """

    index_on: frozenset[str] = frozenset()
    join_method: str | None = None

    def __post_init__(self) -> None:
        if self.join_method is not None and self.join_method not in JOIN_METHODS:
            raise QueryError(f"unknown join method {self.join_method!r}")

    def label(self) -> str:
        attrs = "+".join(sorted(self.index_on)) if self.index_on else "no-index"
        if self.join_method:
            return f"idx[{attrs}]/{self.join_method}"
        return f"idx[{attrs}]"

    def render_sql(self) -> str:
        parts = []
        for attr in sorted(self.index_on):
            parts.append(f"Index-Scan({attr})")
        if self.join_method:
            parts.append(f"{self.join_method.title()}-Join")
        if not parts:
            parts.append("Seq-Scan")
        return "/*+ " + ", ".join(parts) + " */"


@dataclass(frozen=True)
class JoinSpec:
    """Equi-join with a second table, plus filters on that table.

    ``left_column`` is the FK column on the main (outer) table and
    ``right_column`` the referenced column (usually a PK) on ``table``.
    """

    table: str
    left_column: str
    right_column: str
    predicates: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class BinGroupBy:
    """GROUP BY BIN_ID(column): fixed-size spatial cells with COUNT(*)."""

    column: str
    cell_x: float
    cell_y: float

    def __post_init__(self) -> None:
        if self.cell_x <= 0 or self.cell_y <= 0:
            raise QueryError("bin cell sizes must be positive")


@dataclass(frozen=True)
class SelectQuery:
    """A middleware-generated SQL query (possibly already rewritten)."""

    table: str
    predicates: tuple[Predicate, ...]
    output: tuple[str, ...] = ()
    group_by: BinGroupBy | None = None
    join: JoinSpec | None = None
    limit: int | None = None
    hints: HintSet | None = None

    def __post_init__(self) -> None:
        if not self.predicates and self.join is None:
            raise QueryError("a query needs at least one predicate or a join")
        if self.limit is not None and self.limit <= 0:
            raise QueryError(f"limit must be positive, got {self.limit}")
        if self.group_by is None and not self.output:
            raise QueryError("a non-aggregate query needs output columns")

    # -- structural helpers -------------------------------------------------
    @property
    def filter_attributes(self) -> tuple[str, ...]:
        """Attributes of the main table carrying a filter condition."""
        return tuple(p.column for p in self.predicates)

    @property
    def is_join(self) -> bool:
        return self.join is not None

    def with_hints(self, hints: HintSet) -> "SelectQuery":
        return replace(self, hints=hints)

    def with_table(self, table: str) -> "SelectQuery":
        return replace(self, table=table)

    def with_limit(self, limit: int) -> "SelectQuery":
        return replace(self, limit=limit)

    def without_hints(self) -> "SelectQuery":
        return replace(self, hints=None)

    def key(self) -> tuple:
        """Hashable identity (used by memoization layers).

        Computed once and cached on the (immutable) instance: every cache
        layer in the stack — plan, true-time, decision, rewrite-build —
        keys on it, several times per request on the planning hot path.
        """
        try:
            return object.__getattribute__(self, "_cached_key")
        except AttributeError:
            pass
        key = self._compute_key()
        object.__setattr__(self, "_cached_key", key)
        return key

    def _compute_key(self) -> tuple:
        return (
            self.table,
            tuple(p.key() for p in self.predicates),
            self.output,
            self.group_by,
            None
            if self.join is None
            else (
                self.join.table,
                self.join.left_column,
                self.join.right_column,
                tuple(p.key() for p in self.join.predicates),
            ),
            self.limit,
            None
            if self.hints is None
            else (tuple(sorted(self.hints.index_on)), self.hints.join_method),
        )

    def to_sql(self) -> str:
        """Render as a readable SQL string (documentation and examples)."""
        parts: list[str] = []
        if self.hints is not None:
            parts.append(self.hints.render_sql())
        if self.group_by is not None:
            select = f"SELECT BIN_ID({self.group_by.column}), COUNT(*)"
        else:
            select = "SELECT " + ", ".join(self.output)
        parts.append(select)
        from_clause = f"FROM {self.table}"
        if self.join is not None:
            from_clause += f", {self.join.table}"
        parts.append(from_clause)
        conditions = [p.render_sql() for p in self.predicates]
        if self.join is not None:
            # Qualify inner-table conditions so the dialect stays parseable.
            conditions.extend(
                f"{self.join.table}.{p.render_sql()}" for p in self.join.predicates
            )
            conditions.append(
                f"{self.table}.{self.join.left_column} = "
                f"{self.join.table}.{self.join.right_column}"
            )
        if conditions:
            parts.append("WHERE " + "\n  AND ".join(conditions))
        if self.group_by is not None:
            parts.append(f"GROUP BY BIN_ID({self.group_by.column})")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return "\n".join(parts) + ";"


def apply_hints(query: SelectQuery, hints: HintSet) -> SelectQuery:
    """Attach a hint set, validating it refers to actual filter attributes."""
    known = set(query.filter_attributes)
    if query.join is not None:
        known.update(p.column for p in query.join.predicates)
    unknown = hints.index_on - known
    if unknown:
        raise QueryError(f"hint references non-filter attributes: {sorted(unknown)}")
    if hints.join_method is not None and query.join is None:
        raise QueryError("join-method hint on a non-join query")
    return query.with_hints(hints)


class ApproximationRule(ABC):
    """A rewrite that trades result quality for execution time (Section 6)."""

    @abstractmethod
    def apply(self, query: SelectQuery, database: "Database") -> SelectQuery:
        """Return the approximate rewritten query."""

    @abstractmethod
    def label(self) -> str:
        """Short name used in experiment reports."""

    def key(self) -> tuple:
        return (type(self).__name__, self.label())

    def __hash__(self) -> int:
        return hash(self.key())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ApproximationRule) and self.key() == other.key()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.label()


@dataclass(frozen=True, eq=False)
class SampleTableRule(ApproximationRule):
    """Substitute the main table with a pre-built random sample table."""

    sample_table: str
    fraction: float

    def apply(self, query: SelectQuery, database: "Database") -> SelectQuery:
        sample = database.table(self.sample_table)
        base = sample.base_table
        if base != query.table:
            raise QueryError(
                f"sample {self.sample_table!r} is drawn from {base!r}, "
                f"query targets {query.table!r}"
            )
        return query.with_table(self.sample_table)

    def label(self) -> str:
        return f"sample{int(round(self.fraction * 100))}"


@dataclass(frozen=True, eq=False)
class LimitRule(ApproximationRule):
    """Add ``LIMIT k`` where k is a fraction of the estimated cardinality.

    Mirrors the paper's Section 7.7 rules: LIMIT with 0.032% ... 20% of the
    query's estimated cardinality (estimated with the database statistics).
    """

    fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise QueryError(f"limit fraction must be in (0, 1], got {self.fraction}")

    def apply(self, query: SelectQuery, database: "Database") -> SelectQuery:
        estimated = database.estimate_cardinality(query)
        limit = max(1, int(round(estimated * self.fraction)))
        return query.with_limit(limit)

    def label(self) -> str:
        return f"limit{self.fraction * 100:g}%"
