"""Execution-backend protocol plus the shared DB-API implementation.

An :class:`ExecutionBackend` is what ``serve --backend`` swaps in behind
the service's execute stage: it ingests the in-memory catalog into a real
engine once, then answers rewritten :class:`SelectQuery` objects with
wall-clock-timed, row/bin-identical results.

The relational *mangling* (shared by every SQL backend, documented in
``compiler.py``): each logical table gets ``mw_rowid`` (local row
position — the executor's id space) and ``mw_base_rowid``
(``Table.to_base_ids`` of that position); TEXT columns additionally store
a ``<col>__tok`` token stream (`` tok1 tok2 ``, space-delimited with
sentinel spaces so ``instr(tok_col, ' kw ')`` is exact whole-token
matching with the engine's own tokenizer); POINT columns split into
``<col>__x`` / ``<col>__y``.  Sample tables ingest like any other table,
carrying their count weight in the catalog.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..db.query import SelectQuery
from ..db.types import ColumnKind, tokenize
from ..errors import BackendError
from .compiler import (
    BASE_ROWID_COLUMN,
    ROWID_COLUMN,
    BackendCatalog,
    CompiledQuery,
    SqlCompiler,
    index_name,
    quote_ident,
)
from .profile import BackendProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..db.database import Database
    from ..db.table import Table

__all__ = ["BackendResult", "BackendStats", "ExecutionBackend", "SqlBackend"]


@dataclass(frozen=True)
class BackendResult:
    """One query's answer from a real engine, with wall-clock timing."""

    #: "rows" or "bins" — mirrors :attr:`ExecutionResult.kind`.
    kind: str
    #: Base-table row ids, ascending-local order (None for aggregates).
    row_ids: np.ndarray | None
    #: BIN_ID -> weighted count for aggregates (None otherwise).
    bins: dict[int, float] | None
    #: The dialect SQL that ran.
    sql: str
    #: Measured wall clock (not virtual milliseconds) from handing the SQL
    #: to the engine until the answer exists as ``row_ids`` / ``bins``:
    #: engine time, fetch and decode.
    wall_ms: float

    @property
    def result_size(self) -> int:
        if self.bins is not None:
            return len(self.bins)
        assert self.row_ids is not None
        return int(len(self.row_ids))


@dataclass
class BackendStats:
    """Running counters a backend accumulates across :meth:`execute` calls."""

    n_queries: int = 0
    n_row_queries: int = 0
    n_bin_queries: int = 0
    #: Row ids answered (row queries only).
    rows_returned: int = 0
    #: DB-API rows that crossed the engine boundary, bins included.
    rows_fetched: int = 0
    wall_ms_total: float = 0.0

    def snapshot(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_row_queries": self.n_row_queries,
            "n_bin_queries": self.n_bin_queries,
            "rows_returned": self.rows_returned,
            "rows_fetched": self.rows_fetched,
            "wall_ms_total": self.wall_ms_total,
        }


class ExecutionBackend(abc.ABC):
    """Protocol every real execution backend implements."""

    profile: BackendProfile

    @property
    def name(self) -> str:
        return self.profile.name

    @abc.abstractmethod
    def ingest(self, database: "Database") -> None:
        """Load every catalog table (samples included) into the engine."""

    @abc.abstractmethod
    def append_rows(self, table_name: str, table: "Table", first_new: int) -> None:
        """Load rows ``first_new..`` of an ingested table: ``table`` is the
        in-memory table after ``Database.append_rows`` grew it."""

    @abc.abstractmethod
    def rows_loaded(self, table_name: str) -> int | None:
        """How many rows of ``table_name`` the engine holds (``None``: the
        table was never ingested) — what a caller passes as ``first_new``
        to load each row exactly once."""

    @abc.abstractmethod
    def execute(self, query: SelectQuery) -> BackendResult:
        """Run one query and time it with a wall clock."""

    @abc.abstractmethod
    def explain(self, query: SelectQuery) -> tuple[str, ...]:
        """Engine-native plan description lines, where available."""

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SqlBackend(ExecutionBackend):
    """Shared DB-API 2.0 implementation; dialects fill in the hooks."""

    def __init__(self, profile: BackendProfile) -> None:
        self.profile = profile
        self.catalog = BackendCatalog()
        self.stats = BackendStats()
        self._conn = self._connect()
        self._compiler = self._make_compiler()
        self._closed = False

    # -- dialect hooks --------------------------------------------------

    @abc.abstractmethod
    def _connect(self):
        """Open the engine connection (called once, from ``__init__``)."""

    @abc.abstractmethod
    def _make_compiler(self) -> SqlCompiler:
        """Dialect compiler bound to :attr:`catalog`."""

    @abc.abstractmethod
    def _column_type(self, kind: ColumnKind) -> str:
        """Engine type name for a scalar column of ``kind``."""

    def _rowid_decl(self) -> str:
        return "BIGINT PRIMARY KEY"

    def _post_ingest(self) -> None:
        """Refresh engine statistics after bulk load (dialect-specific)."""

    @abc.abstractmethod
    def _explain_sql(self, sql: str) -> str:
        """Wrap a statement in the dialect's EXPLAIN form."""

    def _explain_detail(self, row: tuple) -> str:
        return str(row[-1])

    def _run(self, sql: str, params: tuple) -> list[tuple]:
        return self._conn.execute(sql, params).fetchall()

    @abc.abstractmethod
    def _fetch_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, int]:
        """Run a row query; returns its ids as one flat ``int64`` array
        (couples flattened when ``compiled.paired``) and how many DB-API
        rows were fetched.  Decodes what the compiler's ``pack_ids`` emits."""

    # -- ExecutionBackend -----------------------------------------------

    def ingest(self, database: "Database") -> None:
        for table_name in database.table_names:
            self._ingest_table(
                table_name,
                database.table(table_name),
                tuple(database.indexes_for(table_name)),
            )
        self._post_ingest()

    def _ingest_table(
        self, name: str, table: "Table", indexed_columns: tuple[str, ...]
    ) -> None:
        if name in self.catalog.schemas:
            raise BackendError(f"table {name!r} already ingested")
        schema = table.schema
        decls = [
            f"{quote_ident(ROWID_COLUMN)} {self._rowid_decl()}",
            f"{quote_ident(BASE_ROWID_COLUMN)} {self._column_type(ColumnKind.INT)}",
        ]
        for column in schema.columns:
            if column.kind is ColumnKind.TEXT:
                names = (column.name, column.name + "__tok")
            elif column.kind is ColumnKind.POINT:
                names = (column.name + "__x", column.name + "__y")
            else:
                names = (column.name,)
            # POINT axes are FLOAT; every other kind stores its own type.
            kind = ColumnKind.FLOAT if column.kind is ColumnKind.POINT else column.kind
            decls.extend(f"{quote_ident(n)} {self._column_type(kind)}" for n in names)
        self._conn.execute(
            f"CREATE TABLE {quote_ident(name)} ({', '.join(decls)})"
        )
        self._insert_rows(name, table, 0)

        for column in indexed_columns:
            kind = schema.kind_of(column)
            if kind in self.profile.honored_index_kinds and kind.is_numeric:
                self._conn.execute(
                    f"CREATE INDEX {quote_ident(index_name(name, column))}"
                    f" ON {quote_ident(name)} ({quote_ident(column)})"
                )
                self.catalog.indexes.add((name, column))

        self.catalog.schemas[name] = schema
        self.catalog.weights[name] = (
            1.0 / table.sample_fraction if table.sample_fraction else 1.0
        )

    def append_rows(self, table_name: str, table: "Table", first_new: int) -> None:
        """``INSERT`` only the new rows; the engine maintains its own indexes."""
        if table_name not in self.catalog.schemas:
            raise BackendError(f"table {table_name!r} was never ingested")
        self._insert_rows(table_name, table, first_new)
        self._post_ingest()

    def rows_loaded(self, table_name: str) -> int | None:
        return self.catalog.n_rows.get(table_name)

    def _insert_rows(self, name: str, table: "Table", first: int) -> None:
        """``INSERT`` rows ``first..`` of ``table`` in their mangled form."""
        local_ids = np.arange(first, table.n_rows, dtype=np.int64)
        # Start one row early so the seam with the rows already loaded is
        # checked too: once an append breaks the rise, it stays broken.
        base_ids = table.to_base_ids(
            np.arange(max(first - 1, 0), table.n_rows, dtype=np.int64)
        )
        rising = bool(np.all(base_ids[1:] > base_ids[:-1]))
        monotone_ids = self.catalog.monotone_ids
        monotone_ids[name] = monotone_ids.get(name, True) and rising
        self.catalog.n_rows[name] = table.n_rows
        if len(local_ids) == 0:
            return
        columns: list[list] = [
            local_ids.tolist(),
            base_ids[-len(local_ids) :].tolist(),
        ]
        for column in table.schema.columns:
            if column.kind.is_numeric:
                # tolist() yields python ints for INT, floats otherwise.
                columns.append(table.numeric(column.name)[first:].tolist())
            elif column.kind is ColumnKind.TEXT:
                texts = table.texts(column.name)[first:]
                columns.append(texts)
                columns.append([" " + " ".join(tokenize(t)) + " " for t in texts])
            elif column.kind is ColumnKind.POINT:
                points = table.points(column.name)[first:]
                columns.append(points[:, 0].tolist())
                columns.append(points[:, 1].tolist())
            else:  # pragma: no cover - exhaustive over ColumnKind
                raise BackendError(f"unsupported column kind {column.kind!r}")
        placeholders = ", ".join("?" for _ in columns)
        self._conn.executemany(
            f"INSERT INTO {quote_ident(name)} VALUES ({placeholders})",
            list(zip(*columns)),
        )

    def compile(self, query: SelectQuery) -> CompiledQuery:
        return self._compiler.compile(query)

    def execute(self, query: SelectQuery) -> BackendResult:
        compiled = self.compile(query)
        stats = self.stats
        row_ids = bins = None
        started = time.perf_counter()
        if compiled.kind == "bins":
            rows = self._run(compiled.sql, compiled.params)
            bins = {int(b): float(c) * compiled.weight for b, c in rows}
            stats.n_bin_queries += 1
            stats.rows_fetched += len(rows)
        else:
            row_ids, n_fetched = self._fetch_ids(compiled)
            # The engine only selected the rows; ascending-local order is
            # established here (see ``BackendCatalog.monotone_ids``).
            if compiled.paired:
                couples = row_ids.reshape(-1, 2)
                row_ids = couples[np.argsort(couples[:, 0]), 1]
            else:
                row_ids.sort()
            stats.n_row_queries += 1
            stats.rows_fetched += n_fetched
            stats.rows_returned += len(row_ids)
        wall_ms = (time.perf_counter() - started) * 1000.0
        stats.n_queries += 1
        stats.wall_ms_total += wall_ms
        return BackendResult(
            kind=compiled.kind,
            row_ids=row_ids,
            bins=bins,
            sql=compiled.sql,
            wall_ms=wall_ms,
        )

    def explain(self, query: SelectQuery) -> tuple[str, ...]:
        compiled = self.compile(query)
        rows = self._run(self._explain_sql(compiled.sql), compiled.params)
        return tuple(self._explain_detail(row) for row in rows)

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True
