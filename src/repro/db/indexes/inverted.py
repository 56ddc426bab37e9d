"""Inverted index: keyword -> sorted row-id postings over a TEXT column."""

from __future__ import annotations

import numpy as np

from ..predicates import KeywordPredicate, Predicate
from ..table import Table
from .base import Index, IndexLookup

_EMPTY = np.empty(0, dtype=np.int64)


class InvertedIndex(Index):
    """Token postings built from the shared tokenizer."""

    kind = "inverted"

    def __init__(self, table: Table, column: str) -> None:
        super().__init__(table.name, column)
        self._postings: dict[str, np.ndarray] = {}
        self.n_rows = 0
        self.extend(table, 0)

    def extend(self, table: Table, first_new: int) -> bool:
        """New row ids are larger than every posted id, so concatenating
        them onto the touched tokens' postings keeps each one ascending."""
        postings = self._postings
        for token, new in table.tokens(self.column).postings(first_new):
            old = postings.get(token)
            postings[token] = new if old is None else np.concatenate((old, new))
        self.n_rows = table.n_rows
        return True

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def supports(self, predicate: Predicate) -> bool:
        return isinstance(predicate, KeywordPredicate) and predicate.column == self.column

    def lookup(self, predicate: Predicate) -> IndexLookup:
        if not self.supports(predicate):
            raise self._reject(predicate)
        assert isinstance(predicate, KeywordPredicate)
        ids = self._postings.get(predicate.keyword, _EMPTY)
        return IndexLookup(row_ids=ids, entries_scanned=len(ids))

    def entries_for(self, predicate: Predicate) -> int:
        """Entries a :meth:`lookup` would scan: the keyword's posting length."""
        if not self.supports(predicate):
            raise self._reject(predicate)
        assert isinstance(predicate, KeywordPredicate)
        return self.document_frequency(predicate.keyword)

    def document_frequency(self, token: str) -> int:
        """Number of rows containing ``token`` (0 if absent)."""
        ids = self._postings.get(token)
        return 0 if ids is None else int(len(ids))

    def most_common(self, k: int) -> list[tuple[str, int]]:
        """The ``k`` most frequent tokens with document frequencies."""
        ranked = sorted(
            self._postings.items(), key=lambda item: (-len(item[1]), item[0])
        )
        return [(token, len(ids)) for token, ids in ranked[:k]]
