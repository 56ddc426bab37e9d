"""Common interface for all index structures."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ...errors import QueryError
from ..predicates import Predicate
from ..table import Table


@dataclass(frozen=True)
class IndexLookup:
    """Result of probing an index with one predicate.

    ``row_ids`` is the exact, ascending list of matching rows.
    ``entries_scanned`` is the number of index entries the lookup had to
    examine — the quantity the cost model charges for.  For B-tree and
    inverted indexes this equals ``len(row_ids)``; for the grid index it also
    counts candidates in boundary cells that were examined and rejected.
    """

    row_ids: np.ndarray
    entries_scanned: int

    @property
    def count(self) -> int:
        return int(len(self.row_ids))

    @property
    def nbytes(self) -> int:
        """Bytes of the id array (what the engine's lookup cache budgets)."""
        return int(self.row_ids.nbytes)


class Index(ABC):
    """A secondary index over one column of one table."""

    #: Short family name used in plan descriptions ("btree", "inverted", ...).
    kind: str = "abstract"

    def __init__(self, table_name: str, column: str) -> None:
        self.table_name = table_name
        self.column = column

    @abstractmethod
    def extend(self, table: Table, first_new: int) -> bool:
        """Absorb rows ``first_new..`` of ``table``, appended since the last build.

        Costs work proportional to the appended rows and leaves the index
        indistinguishable from one built on the grown table: same
        ``row_ids`` (values, dtype, order) and ``entries_scanned`` for every
        predicate.  Arrays already handed out by :meth:`lookup` are
        replaced, never mutated.  Returns ``False`` — with the index
        untouched — when that cannot be guaranteed and the caller must
        rebuild.  Constructors build through the same code, from row 0.
        """

    @abstractmethod
    def supports(self, predicate: Predicate) -> bool:
        """Whether this index can answer ``predicate``."""

    @abstractmethod
    def lookup(self, predicate: Predicate) -> IndexLookup:
        """Answer ``predicate`` exactly; raises QueryError if unsupported."""

    def lookup_batch(self, predicates: list[Predicate]) -> list[IndexLookup]:
        """Answer many predicates at once.

        Results must be element-wise identical to :meth:`lookup` — same
        ``row_ids`` arrays and ``entries_scanned`` — so the batch executor
        can substitute a fused sweep for per-predicate probes without
        perturbing work accounting.  Subclasses override this with a
        vectorized implementation where the structure allows one.
        """
        return [self.lookup(predicate) for predicate in predicates]

    def entries_for(self, predicate: Predicate) -> int:
        """``entries_scanned`` of :meth:`lookup`, without materializing ids.

        The shard router charges canonical (whole-table) index work for a
        scattered query from its own full indexes; subclasses override this
        with an O(1)/O(log n) count so that accounting never pays for the
        row-id gather the shards already performed.
        """
        return int(self.lookup(predicate).entries_scanned)

    def _reject(self, predicate: Predicate) -> QueryError:
        return QueryError(
            f"{self.kind} index on {self.table_name}.{self.column} "
            f"cannot answer predicate {predicate!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.table_name}.{self.column})"
