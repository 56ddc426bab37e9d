"""Packed token ids: the tokenized view of one TEXT column.

Keyword predicates, the inverted index, text statistics, the fused QTE
counts and the workload generator all read a TEXT column as "the distinct
tokens of each row".  :class:`PackedTokens` holds that view as a vocabulary
plus every row's distinct token ids (``int32``) concatenated in CSR form
with ``int64`` offsets — four bytes per token instead of one Python
``frozenset`` of ``str`` per row — and answers the readers' questions with
vectorized operations over the packed ids.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .types import tokenize


class PackedTokens:
    """Per-row distinct token ids of one TEXT column, in CSR form.

    ``ids[offsets[i]:offsets[i + 1]]`` are row ``i``'s distinct token ids in
    first-occurrence order, and ``vocabulary[t]`` is the token with id
    ``t``.  Ids are assigned in first-seen order, so the view is a function
    of the texts alone (never of the interpreter's hash seed).  Arrays
    already handed out are replaced by :meth:`extend`, never mutated.
    """

    def __init__(self) -> None:
        self.vocabulary: list[str] = []
        self._index: dict[str, int] = {}
        self.ids = np.empty(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return len(self.offsets) - 1

    def extend(self, texts: Sequence[str]) -> None:
        """Append one row per text; earlier rows are not tokenized again."""
        index = self._index
        setdefault = index.setdefault
        rows = [dict.fromkeys(tokenize(text)) for text in texts]
        # ``len(index)`` is evaluated before the insert: a new token gets
        # the next id, a known one keeps its own.
        flat = [setdefault(token, len(index)) for row in rows for token in row]
        self.vocabulary.extend(islice(index, len(self.vocabulary), None))
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        self.ids = np.concatenate((self.ids, np.array(flat, dtype=np.int32)))
        self.offsets = np.concatenate(
            (self.offsets, self.offsets[-1] + np.cumsum(lengths))
        )

    def token_id(self, token: str) -> int | None:
        """Id of ``token``, or ``None`` when no row contains it."""
        return self._index.get(token)

    def row_tokens(self, row: int) -> list[str]:
        """The distinct tokens of one row, in first-occurrence order."""
        vocabulary = self.vocabulary
        ids = self.ids[self.offsets[row] : self.offsets[row + 1]]
        return [vocabulary[t] for t in ids.tolist()]

    def contains(self, token: str) -> np.ndarray:
        """Boolean mask of the rows containing ``token``."""
        mask = np.zeros(self.n_rows, dtype=bool)
        token_id = self.token_id(token)
        if token_id is not None:
            positions = np.flatnonzero(self.ids == token_id)
            mask[np.searchsorted(self.offsets, positions, side="right") - 1] = True
        return mask

    def document_counts(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Per token id, how many of ``rows`` (default: every row) contain it."""
        ids = self.ids
        if rows is not None:
            rows = np.asarray(rows)
            starts = self.offsets[rows]
            lengths = self.offsets[rows + 1] - starts
            # Gather the rows' CSR runs: run k covers starts[k] + 0..lengths[k].
            shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            ids = ids[shift + np.arange(int(lengths.sum()))]
        return np.bincount(ids, minlength=len(self.vocabulary))

    def postings(self, first_row: int = 0) -> Iterator[tuple[str, np.ndarray]]:
        """``(token, ascending int64 row ids)`` for every token of rows
        ``first_row..``, in token-id order.

        A stable argsort by token id keeps each token's rows in row order.
        """
        start = int(self.offsets[first_row])
        tokens = self.ids[start:]
        rows = np.repeat(
            np.arange(first_row, self.n_rows, dtype=np.int64),
            np.diff(self.offsets[first_row:]),
        )
        order = np.argsort(tokens, kind="stable")
        tokens, rows = tokens[order], rows[order]
        bounds = np.flatnonzero(np.diff(tokens)) + 1
        starts = np.concatenate(([0], bounds)).tolist()
        ends = np.concatenate((bounds, [len(tokens)])).tolist()
        vocabulary = self.vocabulary
        for lo, hi in zip(starts, ends):
            if hi > lo:
                yield vocabulary[int(tokens[lo])], rows[lo:hi]
