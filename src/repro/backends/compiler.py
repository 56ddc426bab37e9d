"""Compile :class:`SelectQuery` objects into a real engine's SQL dialect.

The compiler targets the *mangled* relational layout the backends ingest
(``base.py``): every logical table gains ``mw_rowid`` (the in-memory local
row position) and ``mw_base_rowid`` (the base-table id, i.e.
``Table.to_base_ids``); TEXT columns gain a ``<col>__tok`` companion
holding the space-joined token stream; POINT columns are split into
``<col>__x`` / ``<col>__y`` reals.

Equivalence contract with the in-memory executor (pinned by tests):

* row queries answer ``mw_base_rowid`` in ``mw_rowid`` order — the
  executor's ascending-local-id order — with ``LIMIT`` applied after the
  join, exactly where :meth:`Executor.scan_rows` truncates.  The engine
  only *selects* the rows (``ORDER BY mw_rowid`` is emitted just to make
  ``LIMIT`` pick the right ones); the backend establishes the output order
  client-side — by sorting the ids when the catalog knows
  ``mw_base_rowid`` rises with ``mw_rowid``, else from
  ``(mw_rowid, mw_base_rowid)`` pairs — so a dialect may pack the ids
  into one value (:meth:`SqlCompiler.pack_ids`) whose element order is
  unspecified;
* joins compile to ``EXISTS`` semi-joins (the executor only ever emits
  outer rows), so no uniqueness assumption on the inner key is needed;
* heatmap queries group by the same ``BIN_ID`` arithmetic as
  ``repro.db.binning`` (dialect hook :meth:`SqlCompiler.bin_expression`)
  and the sample-table weight is applied python-side with the identical
  ``float(count) * weight`` expression :func:`bin_counts` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.binning import BIN_ORIGIN_X, BIN_ORIGIN_Y, _BIN_STRIDE
from ..db.predicates import (
    EqualsPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SpatialPredicate,
)
from ..db.query import SelectQuery
from ..db.schema import TableSchema
from ..db.types import ColumnKind
from ..errors import BackendError

__all__ = [
    "BackendCatalog",
    "CompiledQuery",
    "DuckDbCompiler",
    "SqlCompiler",
    "SqliteCompiler",
    "quote_ident",
]

ROWID_COLUMN = "mw_rowid"
BASE_ROWID_COLUMN = "mw_base_rowid"
TOKEN_SUFFIX = "__tok"
POINT_X_SUFFIX = "__x"
POINT_Y_SUFFIX = "__y"


def quote_ident(name: str) -> str:
    """Double-quote an SQL identifier (names come from validated schemas)."""
    return '"' + name.replace('"', '""') + '"'


def index_name(table: str, column: str) -> str:
    return f"ix_{table}_{column}"


@dataclass(frozen=True)
class CompiledQuery:
    """One engine-dialect SQL statement plus its bind parameters."""

    sql: str
    params: tuple
    #: "rows" (base-row-id projection) or "bins" (BIN_ID -> count).
    kind: str
    #: Sample-table scale factor to apply to bin counts (1.0 for base tables).
    weight: float
    #: Row queries only: the ids come back as ``mw_rowid, mw_base_rowid``
    #: pairs (the table's base ids do not rise with its local ids).
    paired: bool = False


@dataclass
class BackendCatalog:
    """What the backend knows about its ingested tables."""

    schemas: dict[str, TableSchema] = field(default_factory=dict)
    #: Per-table bin-count weight (1/sample_fraction for sample tables).
    weights: dict[str, float] = field(default_factory=dict)
    #: (table, column) pairs that received a backend index at ingest.
    indexes: set[tuple[str, str]] = field(default_factory=set)
    #: Per table: is ``mw_base_rowid`` strictly increasing in ``mw_rowid``
    #: (always for base tables)?  Then sorting a result's base ids *is*
    #: ascending-local order.  Kept current by ingest and every append.
    monotone_ids: dict[str, bool] = field(default_factory=dict)
    #: Per table: rows loaded so far.  Kept current by ingest and every append.
    n_rows: dict[str, int] = field(default_factory=dict)


class SqlCompiler:
    """Shared ANSI-ish compiler; dialects override the hook methods."""

    def __init__(self, catalog: BackendCatalog) -> None:
        self.catalog = catalog

    # -- dialect hooks --------------------------------------------------

    def hint_clause(self, query: SelectQuery) -> str:
        """Table-scan hint syntax (empty when the dialect has none)."""
        return ""

    def bin_expression(
        self, point_column: str, cell_x: float, cell_y: float
    ) -> tuple[str, list]:
        """SQL computing the BIN_ID of the mangled x/y of ``point_column``,
        plus its bind parameters.  Origins and cell sizes are bound, not
        written as literals, so the engine divides by the very doubles
        ``compute_bin_ids`` uses (no text -> double conversion)."""
        x = f'"m".{quote_ident(point_column + POINT_X_SUFFIX)}'
        y = f'"m".{quote_ident(point_column + POINT_Y_SUFFIX)}'
        return (
            f"CAST(floor(({x} - ?) / ?) AS BIGINT) * {_BIN_STRIDE}"
            f" + CAST(floor(({y} - ?) / ?) AS BIGINT)",
            [BIN_ORIGIN_X, float(cell_x), BIN_ORIGIN_Y, float(cell_y)],
        )

    def pack_ids(self, select_sql: str, columns: tuple[str, ...]) -> str:
        """Wrap the id projection ``select_sql`` (which yields ``columns``)
        so its ids cross the DB-API boundary in as few fetches as the
        dialect allows; the backend's ``_fetch_ids`` is its decoder."""
        return select_sql

    def contains_fragment(self, alias: str, column: str) -> str:
        """``column CONTAINS ?`` over the token-stream companion column."""
        return f"instr({quote_ident(alias)}.{quote_ident(column + TOKEN_SUFFIX)}, ?) > 0"

    # -- compilation ----------------------------------------------------

    def schema_of(self, table: str) -> TableSchema:
        try:
            return self.catalog.schemas[table]
        except KeyError:
            raise BackendError(f"table {table!r} was never ingested") from None

    def compile(self, query: SelectQuery) -> CompiledQuery:
        schema = self.schema_of(query.table)
        where_parts: list[str] = []
        params: list = []

        for predicate in query.predicates:
            fragment, pred_params = self.predicate_fragment("m", schema, predicate)
            where_parts.append(fragment)
            params.extend(pred_params)

        if query.join is not None:
            join = query.join
            inner_schema = self.schema_of(join.table)
            conditions = [
                f'"m".{quote_ident(join.left_column)}'
                f' = "j".{quote_ident(join.right_column)}'
            ]
            for predicate in join.predicates:
                fragment, pred_params = self.predicate_fragment(
                    "j", inner_schema, predicate
                )
                conditions.append(fragment)
                params.extend(pred_params)
            where_parts.append(
                f"EXISTS (SELECT 1 FROM {quote_ident(join.table)} AS \"j\""
                f" WHERE {' AND '.join(conditions)})"
            )

        where_sql = f"\nWHERE {' AND '.join(where_parts)}" if where_parts else ""
        from_sql = f'FROM {quote_ident(query.table)} AS "m"'
        hint = self.hint_clause(query)
        if hint:
            from_sql += f" {hint}"
        weight = self.catalog.weights.get(query.table, 1.0)

        # ORDER BY exists only so LIMIT truncates in ascending-local order.
        tail = ""
        if query.limit is not None:
            tail = f'\nORDER BY "m".{quote_ident(ROWID_COLUMN)} LIMIT ?'
            params.append(int(query.limit))

        if query.group_by is not None:
            bin_expr, bin_params = self.bin_expression(
                query.group_by.column, query.group_by.cell_x, query.group_by.cell_y
            )
            # The bin expression sits in the select list, ahead of WHERE.
            params[:0] = bin_params
            sql = (
                f'SELECT "b"."bin_id", COUNT(*)\n'
                f'FROM (SELECT {bin_expr} AS "bin_id"\n'
                f"{from_sql}{where_sql}{tail}) AS \"b\"\n"
                f'GROUP BY "b"."bin_id"'
            )
            return CompiledQuery(
                sql=sql, params=tuple(params), kind="bins", weight=weight
            )

        paired = not self.catalog.monotone_ids.get(query.table, False)
        columns = (ROWID_COLUMN, BASE_ROWID_COLUMN) if paired else (BASE_ROWID_COLUMN,)
        projection = ", ".join(f'"m".{quote_ident(c)}' for c in columns)
        sql = self.pack_ids(
            f"SELECT {projection}\n{from_sql}{where_sql}{tail}", columns
        )
        return CompiledQuery(
            sql=sql, params=tuple(params), kind="rows", weight=weight, paired=paired
        )

    def predicate_fragment(
        self, alias: str, schema: TableSchema, predicate: Predicate
    ) -> tuple[str, list]:
        column = predicate.column
        kind = schema.kind_of(column)
        qualified = f"{quote_ident(alias)}.{quote_ident(column)}"
        if isinstance(predicate, KeywordPredicate):
            if kind is not ColumnKind.TEXT:
                raise BackendError(f"keyword predicate on non-TEXT column {column!r}")
            return self.contains_fragment(alias, column), [f" {predicate.keyword} "]
        if isinstance(predicate, RangePredicate):
            parts, values = [], []
            if predicate.low is not None:
                parts.append(f"{qualified} >= ?")
                values.append(float(predicate.low))
            if predicate.high is not None:
                parts.append(f"{qualified} <= ?")
                values.append(float(predicate.high))
            return " AND ".join(parts), values
        if isinstance(predicate, SpatialPredicate):
            if kind is not ColumnKind.POINT:
                raise BackendError(f"spatial predicate on non-POINT column {column!r}")
            x = f"{quote_ident(alias)}.{quote_ident(column + POINT_X_SUFFIX)}"
            y = f"{quote_ident(alias)}.{quote_ident(column + POINT_Y_SUFFIX)}"
            box = predicate.box
            return (
                f"{x} >= ? AND {x} <= ? AND {y} >= ? AND {y} <= ?",
                [
                    float(box.min_x),
                    float(box.max_x),
                    float(box.min_y),
                    float(box.max_y),
                ],
            )
        if isinstance(predicate, EqualsPredicate):
            return f"{qualified} = ?", [float(predicate.value)]
        raise BackendError(f"cannot compile predicate type {type(predicate).__name__}")


class SqliteCompiler(SqlCompiler):
    """SQLite dialect: ``INDEXED BY`` hints, ``group_concat``-packed ids,
    and the ``MW_BIN_ID`` UDF on builds without SQL math functions."""

    def __init__(self, catalog: BackendCatalog, *, native_floor: bool = True) -> None:
        super().__init__(catalog)
        self.native_floor = native_floor

    def hint_clause(self, query: SelectQuery) -> str:
        hints = query.hints
        if hints is None:
            return ""
        candidates = sorted(
            attr
            for attr in hints.index_on
            if (query.table, attr) in self.catalog.indexes
        )
        if not candidates:
            # Seq-Scan hint, or hinted attrs the backend built no index for
            # (unhonored kinds): forbid index use entirely — result-identical
            # either way, but keeps the scan honest about the hint.
            return "NOT INDEXED"
        # Profile pruning caps honored hint sets at one attribute; raw
        # multi-attribute hints degrade deterministically to the first.
        return f"INDEXED BY {quote_ident(index_name(query.table, candidates[0]))}"

    def bin_expression(
        self, point_column: str, cell_x: float, cell_y: float
    ) -> tuple[str, list]:
        if self.native_floor:
            return super().bin_expression(point_column, cell_x, cell_y)
        x = f'"m".{quote_ident(point_column + POINT_X_SUFFIX)}'
        y = f'"m".{quote_ident(point_column + POINT_Y_SUFFIX)}'
        return f"MW_BIN_ID({x}, {y}, ?, ?)", [float(cell_x), float(cell_y)]

    def pack_ids(self, select_sql: str, columns: tuple[str, ...]) -> str:
        """One row, one text value: ``id,id,…`` (``mw_rowid,mw_base_rowid``
        couples when paired — each couple is one ``group_concat`` element,
        so no order among elements is relied on).  NULL when empty."""
        element = " || ',' || ".join(f'"s".{quote_ident(c)}' for c in columns)
        return f'SELECT group_concat({element})\nFROM ({select_sql}) AS "s"'


class DuckDbCompiler(SqlCompiler):
    """DuckDB dialect: no hint surface; native floor()-based binning."""
