"""The always-on SQLite reference backend (stdlib ``sqlite3``).

Runs everywhere CPython runs, so it is the backend CI exercises and the
one the equivalence contract is pinned against.  A row query crosses the
DB-API boundary once: the compiler packs its ids into one ``group_concat``
text and :meth:`SqliteBackend._fetch_ids` decodes it in one numpy call.
Binning is SQLite's own ``floor()`` where the build has the SQL math
functions (probed at connect); otherwise a registered deterministic UDF
``MW_BIN_ID`` reproduces ``repro.db.binning.compute_bin_ids`` bit for bit
(``math.floor`` on float64 equals ``np.floor`` for finite inputs).  Index
hints compile to SQLite's mandatory ``INDEXED BY`` / ``NOT INDEXED``.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np

from ..db.binning import BIN_ORIGIN_X, BIN_ORIGIN_Y, _BIN_STRIDE
from ..db.types import ColumnKind
from .base import SqlBackend
from .compiler import CompiledQuery, SqlCompiler, SqliteCompiler
from .profile import BackendProfile, sqlite_profile

__all__ = ["SqliteBackend"]


def _bin_id(x: float, y: float, cell_x: float, cell_y: float) -> int:
    return (
        math.floor((x - BIN_ORIGIN_X) / cell_x) * _BIN_STRIDE
        + math.floor((y - BIN_ORIGIN_Y) / cell_y)
    )


def _has_native_floor(conn: sqlite3.Connection) -> bool:
    """Does this SQLite build ship the SQL math functions
    (``SQLITE_ENABLE_MATH_FUNCTIONS``)?"""
    try:
        conn.execute("SELECT floor(1.5)")
    except sqlite3.OperationalError:
        return False
    return True


class SqliteBackend(SqlBackend):
    """Maliva in front of a real SQLite database."""

    def __init__(
        self, profile: BackendProfile | None = None, *, path: str = ":memory:"
    ) -> None:
        self._path = path
        super().__init__(profile or sqlite_profile())

    def _connect(self):
        conn = sqlite3.connect(self._path)
        self._native_floor = _has_native_floor(conn)
        if not self._native_floor:
            conn.create_function("MW_BIN_ID", 4, _bin_id, deterministic=True)
        return conn

    def _make_compiler(self) -> SqlCompiler:
        return SqliteCompiler(self.catalog, native_floor=self._native_floor)

    def _fetch_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, int]:
        (packed,) = self._conn.execute(compiled.sql, compiled.params).fetchone()
        if packed is None:  # group_concat over no rows
            return np.empty(0, dtype=np.int64), 1
        return np.fromstring(packed, dtype=np.int64, sep=","), 1

    def _column_type(self, kind: ColumnKind) -> str:
        if kind is ColumnKind.INT:
            return "INTEGER"
        if kind is ColumnKind.TEXT:
            return "TEXT"
        return "REAL"

    def _rowid_decl(self) -> str:
        # INTEGER PRIMARY KEY aliases the rowid: local ids come for free.
        return "INTEGER PRIMARY KEY"

    def _post_ingest(self) -> None:
        self._conn.execute("ANALYZE")
        self._conn.commit()

    def _explain_sql(self, sql: str) -> str:
        return "EXPLAIN QUERY PLAN " + sql
