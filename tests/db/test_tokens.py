"""Packed token ids (``Table.tokens``) against a frozenset-per-row reference.

Every reader of a TEXT column — ``KeywordPredicate.mask``, the fused QTE
keyword counts, ``TextColumnStats``, ``InvertedIndex`` — used to walk one
Python ``frozenset`` of tokens per row.  The reference implementations of
those readers are kept here, over exactly that representation, and the
packed view must agree with them over random texts (repeated tokens, empty
rows, punctuation) grown by random append schedules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import (
    Column,
    ColumnKind,
    InvertedIndex,
    KeywordPredicate,
    Table,
    TableSchema,
    tokenize,
)
from repro.db.statistics import TextColumnStats
from repro.qte.fused import fused_predicate_counts

WORDS = ["red", "fox", "don't", "sky", "a1", "owl", "sea", "hen", "zz9", "the"]
SCHEMA = TableSchema(
    name="docs",
    columns=(Column("id", ColumnKind.INT), Column("body", ColumnKind.TEXT)),
)


def random_texts(rng: np.random.Generator, n: int) -> list[str]:
    texts = []
    for _ in range(n):
        words = rng.choice(WORDS, size=int(rng.integers(0, 9)), replace=True)
        # Mixed case and punctuation exercise the shared tokenizer.
        texts.append(
            " ".join(w.upper() if rng.random() < 0.2 else w + "," for w in words)
        )
    return texts


def rows_of(texts: list[str], start: int) -> dict:
    return {"id": np.arange(start, start + len(texts)), "body": texts}


# ----------------------------------------------------------------------
# Reference readers over one frozenset per row
# ----------------------------------------------------------------------
def reference_token_sets(texts: list[str]) -> list[frozenset[str]]:
    return [frozenset(tokenize(t)) for t in texts]


def reference_mcv(token_sets, mcv_size: int, sample_rows: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = len(token_sets)
    if n > sample_rows:
        picked = rng.choice(n, size=sample_rows, replace=False)
        sample = [token_sets[i] for i in picked]
    else:
        sample = token_sets
    counts: dict[str, int] = {}
    for tokens in sample:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {token: count / len(sample) for token, count in ranked[:mcv_size]}


def reference_postings(token_sets) -> dict[str, np.ndarray]:
    postings: dict[str, list[int]] = {}
    for row, tokens in enumerate(token_sets):
        for token in tokens:
            postings.setdefault(token, []).append(row)
    return {token: np.asarray(ids, dtype=np.int64) for token, ids in postings.items()}


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
def assert_matches_reference(table: Table, index: InvertedIndex, texts: list[str]):
    reference = reference_token_sets(texts)
    packed = table.tokens("body")
    assert packed.n_rows == table.n_rows == len(reference)
    for row, expected in enumerate(reference):
        tokens = packed.row_tokens(row)
        assert len(tokens) == len(expected) and set(tokens) == expected, row

    keywords = sorted({t for tokens in reference for t in tokens}) + ["absent"]
    group = [KeywordPredicate("body", word) for word in keywords]
    for predicate in group:
        expected = np.array([predicate.keyword in t for t in reference], dtype=bool)
        assert np.array_equal(predicate.mask(table), expected), predicate.keyword
    counts = fused_predicate_counts(table, KeywordPredicate, "body", group)
    assert counts.dtype == np.int64
    assert counts.tolist() == [
        sum(p.keyword in t for t in reference) for p in group
    ]

    for mcv_size, sample_rows in ((3, 10_000), (50, 7), (4, len(reference))):
        stats = TextColumnStats(packed, mcv_size, sample_rows, 0.005, seed=5)
        expected = reference_mcv(reference, mcv_size, sample_rows, seed=5)
        assert stats.mcv == expected
        assert list(stats.mcv) == list(expected)

    postings = reference_postings(reference)
    assert index.vocabulary_size == len(postings)
    for token, ids in postings.items():
        lookup = index.lookup(KeywordPredicate("body", token))
        assert lookup.row_ids.dtype == np.int64
        assert np.array_equal(lookup.row_ids, ids), token
    ranked = sorted(postings.items(), key=lambda item: (-len(item[1]), item[0]))
    for k in (1, 3, len(ranked) + 1):
        assert index.most_common(k) == [(t, len(ids)) for t, ids in ranked[:k]]


@pytest.mark.parametrize("seed", range(8))
def test_packed_tokens_match_the_frozenset_reference(seed):
    rng = np.random.default_rng(seed)
    texts = random_texts(rng, int(rng.integers(1, 40)))
    table = Table(SCHEMA, rows_of(texts, 0))
    index = InvertedIndex(table, "body")
    assert_matches_reference(table, index, texts)
    for _ in range(int(rng.integers(1, 5))):
        delta = random_texts(rng, int(rng.integers(0, 25)))
        first_new = table.n_rows
        table.append_rows(rows_of(delta, first_new))
        texts += delta
        assert index.extend(table, first_new)
        assert_matches_reference(table, index, texts)
    # Extended postings are indistinguishable from a build on the grown table.
    rebuilt = InvertedIndex(Table(SCHEMA, rows_of(texts, 0)), "body")
    assert rebuilt.most_common(len(WORDS)) == index.most_common(len(WORDS))
    assert table.texts_tokenized == len(texts)


def test_token_ids_follow_first_occurrence_not_hash_order():
    table = Table(SCHEMA, rows_of(["Sea sea FOX", "", "owl sea"], 0))
    packed = table.tokens("body")
    assert packed.vocabulary == ["sea", "fox", "owl"]
    assert packed.ids.tolist() == [0, 1, 2, 0]
    assert packed.offsets.tolist() == [0, 2, 2, 4]
    assert packed.token_id("owl") == 2 and packed.token_id("cat") is None
    assert packed.document_counts(np.array([2, 0])).tolist() == [2, 1, 1]
