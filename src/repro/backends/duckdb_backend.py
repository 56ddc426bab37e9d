"""Optional DuckDB backend (``pip install duckdb``).

Import-gated: the module always imports, the class only constructs when
the driver is present, and the test suite skips itself via
``pytest.importorskip("duckdb")``.  DuckDB exposes no hint dialect, so
its :class:`BackendProfile` prunes every non-empty hint set and the
derived simulation profile sets ``hint_ignore_prob`` to 1.0.
"""

from __future__ import annotations

import numpy as np

from ..db.types import ColumnKind
from ..errors import BackendError
from .base import SqlBackend
from .compiler import CompiledQuery, DuckDbCompiler, SqlCompiler
from .profile import BackendProfile, duckdb_profile

try:  # pragma: no cover - exercised only where duckdb is installed
    import duckdb
except ImportError:  # pragma: no cover
    duckdb = None

__all__ = ["DuckDbBackend", "duckdb_available"]


def duckdb_available() -> bool:
    return duckdb is not None


class DuckDbBackend(SqlBackend):
    """Maliva in front of a real DuckDB database."""

    def __init__(self, profile: BackendProfile | None = None) -> None:
        if duckdb is None:
            raise BackendError(
                "the duckdb backend requires the optional 'duckdb' package "
                "(pip install duckdb)"
            )
        super().__init__(profile or duckdb_profile())

    def _connect(self):
        return duckdb.connect()

    def _make_compiler(self) -> SqlCompiler:
        return DuckDbCompiler(self.catalog)

    def _column_type(self, kind: ColumnKind) -> str:
        if kind is ColumnKind.INT:
            return "BIGINT"
        if kind is ColumnKind.TEXT:
            return "VARCHAR"
        return "DOUBLE"

    def _run(self, sql: str, params: tuple) -> list[tuple]:
        return self._conn.execute(sql, list(params)).fetchall()

    def _fetch_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, int]:
        # Columnar fetch: one int64 array per projected column, no tuples.
        columns = self._conn.execute(compiled.sql, list(compiled.params)).fetchnumpy()
        ids = np.column_stack(list(columns.values())).astype(np.int64, copy=False)
        return ids.reshape(-1), len(ids)

    def _explain_sql(self, sql: str) -> str:
        return "EXPLAIN " + sql
