"""Columnar in-memory table storage.

Tables store each column as a numpy array (or a plain list for TEXT).  Row
identity is positional: row ``i`` of every column belongs to the same record.
Sample tables — the substrate for the paper's approximation rules such as
``tweetsSample20`` — remember which base table they were drawn from and keep
the mapping back to base row ids, so approximate results can be compared
against exact results by quality functions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .schema import TableSchema
from .tokens import PackedTokens
from .types import ColumnKind

ColumnData = "np.ndarray | list[str]"


class Table:
    """One table: a schema plus columnar data.

    Parameters
    ----------
    schema:
        The table schema. Every schema column must appear in ``columns``.
    columns:
        Mapping from column name to data. Numeric/timestamp columns must be
        1-D numpy arrays; POINT columns must be ``(n, 2)`` float arrays; TEXT
        columns must be sequences of strings.
    base_table / sample_fraction / base_row_ids:
        Set only on sample tables (see :meth:`sample`).
    """

    def __init__(
        self,
        schema: TableSchema,
        columns: Mapping[str, object],
        *,
        base_table: str | None = None,
        sample_fraction: float | None = None,
        base_row_ids: np.ndarray | None = None,
    ) -> None:
        self.schema = schema
        self._columns: dict[str, object] = {}
        self._tokens: dict[str, PackedTokens] = {}
        #: Texts run through the tokenizer so far (maintenance accounting).
        self.texts_tokenized = 0
        self.base_table = base_table
        self.sample_fraction = sample_fraction
        self.base_row_ids = base_row_ids

        n_rows: int | None = None
        for col in schema.columns:
            if col.name not in columns:
                raise SchemaError(f"missing data for column {col.name!r}")
            data = _normalize_column(col.name, col.kind, columns[col.name])
            length = len(data)
            if n_rows is None:
                n_rows = length
            elif n_rows != length:
                raise SchemaError(
                    f"column {col.name!r} has {length} rows, expected {n_rows}"
                )
            self._columns[col.name] = data
        self.n_rows = int(n_rows or 0)

        if base_row_ids is not None and len(base_row_ids) != self.n_rows:
            raise SchemaError("base_row_ids length must match row count")

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def is_sample(self) -> bool:
        return self.base_table is not None

    def column(self, name: str) -> object:
        """Return the raw storage of a column (numpy array or list of str)."""
        if name not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def numeric(self, name: str) -> np.ndarray:
        """Return a numeric/timestamp column as a 1-D numpy array."""
        kind = self.schema.kind_of(name)
        if not kind.is_numeric:
            raise SchemaError(f"column {name!r} of {self.name!r} is not numeric")
        return self._columns[name]  # type: ignore[return-value]

    def points(self, name: str) -> np.ndarray:
        """Return a POINT column as an ``(n, 2)`` float array."""
        if self.schema.kind_of(name) is not ColumnKind.POINT:
            raise SchemaError(f"column {name!r} of {self.name!r} is not a POINT")
        return self._columns[name]  # type: ignore[return-value]

    def texts(self, name: str) -> list[str]:
        """Return a TEXT column as a list of strings."""
        if self.schema.kind_of(name) is not ColumnKind.TEXT:
            raise SchemaError(f"column {name!r} of {self.name!r} is not TEXT")
        return self._columns[name]  # type: ignore[return-value]

    def tokens(self, name: str) -> PackedTokens:
        """Packed token ids of a TEXT column, cached per column after first
        use and extended by :meth:`append_rows`."""
        packed = self._tokens.get(name)
        if packed is None:
            texts = self.texts(name)
            packed = self._tokens[name] = PackedTokens()
            self._tokenize(packed, texts)
        return packed

    def _tokenize(self, packed: PackedTokens, texts: list[str]) -> None:
        self.texts_tokenized += len(texts)
        packed.extend(texts)

    def to_base_ids(self, row_ids: np.ndarray) -> np.ndarray:
        """Map local row ids to base-table row ids (identity for base tables)."""
        if self.base_row_ids is None:
            return row_ids
        return self.base_row_ids[row_ids]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append_rows(self, columns: Mapping[str, object]) -> int:
        """Append rows (one entry per schema column); returns new row count.

        Packed tokens already cached for a TEXT column are extended with the
        new rows' tokens (the old rows are not re-tokenized).  Mutating a
        table still invalidates everything else derived from it — callers
        should go through :meth:`repro.db.database.Database.append_rows`,
        which extends the indexes, re-analyzes statistics and evicts
        poisoned cache entries.
        """
        if self.is_sample:
            raise SchemaError(f"cannot append to sample table {self.name!r}")
        appended: dict[str, object] = {}
        n_new: int | None = None
        for col in self.schema.columns:
            if col.name not in columns:
                raise SchemaError(f"missing data for column {col.name!r}")
            data = _normalize_column(col.name, col.kind, columns[col.name])
            if n_new is None:
                n_new = len(data)
            elif n_new != len(data):
                raise SchemaError(
                    f"column {col.name!r} has {len(data)} rows, expected {n_new}"
                )
            appended[col.name] = data
        for name, data in appended.items():
            current = self._columns[name]
            if isinstance(current, np.ndarray):
                self._columns[name] = np.concatenate([current, data])
            else:
                assert isinstance(current, list) and isinstance(data, list)
                current.extend(data)
                packed = self._tokens.get(name)
                if packed is not None:
                    self._tokenize(packed, data)
        self.n_rows += int(n_new or 0)
        return self.n_rows

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def sample(self, fraction: float, seed: int, name: str) -> "Table":
        """Draw a uniform random sample table (without replacement).

        The sample keeps row order (sorted base ids) so that downstream
        structures such as LIMIT truncation behave like a physical table.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
        rng = np.random.default_rng(seed)
        k = max(1, int(round(self.n_rows * fraction)))
        chosen = np.sort(rng.choice(self.n_rows, size=min(k, self.n_rows), replace=False))
        columns = {c.name: _take(self._columns[c.name], chosen) for c in self.schema.columns}
        return Table(
            self.schema.renamed(name),
            columns,
            base_table=self.name if self.base_table is None else self.base_table,
            sample_fraction=fraction
            if self.sample_fraction is None
            else fraction * self.sample_fraction,
            base_row_ids=self.to_base_ids(chosen),
        )

    def select_rows(self, row_ids: Iterable[int], name: str) -> "Table":
        """Return a new table containing only ``row_ids`` (in the given order)."""
        ids = np.asarray(list(row_ids), dtype=np.int64)
        columns = {c.name: _take(self._columns[c.name], ids) for c in self.schema.columns}
        return Table(
            self.schema.renamed(name),
            columns,
            base_table=self.name if self.base_table is None else self.base_table,
            sample_fraction=self.sample_fraction,
            base_row_ids=self.to_base_ids(ids),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        origin = f" sample({self.sample_fraction:.3f}) of {self.base_table}" if self.is_sample else ""
        return f"Table({self.name!r}, rows={self.n_rows}{origin})"


def _normalize_column(name: str, kind: ColumnKind, data: object) -> object:
    """Validate and coerce raw column data to its storage representation."""
    if kind is ColumnKind.TEXT:
        if isinstance(data, np.ndarray):
            data = data.tolist()
        if not isinstance(data, (list, tuple)):
            raise SchemaError(f"TEXT column {name!r} must be a sequence of strings")
        return [str(v) for v in data]
    if kind is ColumnKind.POINT:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise SchemaError(f"POINT column {name!r} must be an (n, 2) array")
        return arr
    dtype = np.int64 if kind is ColumnKind.INT else np.float64
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != 1:
        raise SchemaError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    return arr


def _take(data: object, ids: np.ndarray) -> object:
    if isinstance(data, np.ndarray):
        return data[ids]
    assert isinstance(data, list)
    return [data[i] for i in ids]


def make_table(schema: TableSchema, columns: Mapping[str, Sequence]) -> Table:
    """Convenience constructor used heavily in tests."""
    return Table(schema, columns)
