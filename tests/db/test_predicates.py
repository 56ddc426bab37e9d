"""Unit tests for predicate semantics (the reference implementations)."""

import numpy as np
import pytest

from repro.db import (
    BoundingBox,
    EqualsPredicate,
    KeywordPredicate,
    RangePredicate,
    SpatialPredicate,
)
from repro.db.predicates import predicates_on
from repro.errors import QueryError


class TestKeywordPredicate:
    def test_token_membership(self, small_table):
        predicate = KeywordPredicate("note", "alpha")
        mask = predicate.mask(small_table)
        packed = small_table.tokens("note")
        for i in range(small_table.n_rows):
            assert mask[i] == ("alpha" in packed.row_tokens(i))

    def test_keyword_normalized(self):
        assert KeywordPredicate("note", "  Alpha ").keyword == "alpha"

    def test_multi_token_keyword_raises(self):
        with pytest.raises(QueryError):
            KeywordPredicate("note", "two words")

    def test_empty_keyword_raises(self):
        with pytest.raises(QueryError):
            KeywordPredicate("note", "!!!")


class TestRangePredicate:
    def test_inclusive_bounds(self, small_table):
        values = small_table.numeric("value")
        low, high = float(values[3]), float(values[3])
        predicate = RangePredicate("value", low, high)
        assert predicate.mask(small_table)[3]

    def test_one_sided(self, small_table):
        values = small_table.numeric("value")
        mask = RangePredicate("value", None, 50.0).mask(small_table)
        assert np.array_equal(mask, values <= 50.0)
        mask = RangePredicate("value", 50.0, None).mask(small_table)
        assert np.array_equal(mask, values >= 50.0)

    def test_unbounded_raises(self):
        with pytest.raises(QueryError):
            RangePredicate("value", None, None)

    def test_inverted_raises(self):
        with pytest.raises(QueryError):
            RangePredicate("value", 2.0, 1.0)


class TestSpatialPredicate:
    def test_box_membership(self, small_table):
        box = BoundingBox(-5.0, -5.0, 5.0, 5.0)
        mask = SpatialPredicate("spot", box).mask(small_table)
        pts = small_table.points("spot")
        expected = (
            (pts[:, 0] >= -5) & (pts[:, 0] <= 5) & (pts[:, 1] >= -5) & (pts[:, 1] <= 5)
        )
        assert np.array_equal(mask, expected)


class TestEqualsPredicate:
    def test_matches_exact_value(self, small_table):
        predicate = EqualsPredicate("id", 7)
        ids = predicate.matching_ids(small_table)
        assert list(ids) == [7]


class TestIdentity:
    def test_equality_and_hash_by_key(self):
        a = RangePredicate("value", 1.0, 2.0)
        b = RangePredicate("value", 1.0, 2.0)
        c = RangePredicate("value", 1.0, 3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != KeywordPredicate("value", "x")

    def test_render_sql(self):
        assert "BETWEEN" in RangePredicate("v", 1.0, 2.0).render_sql()
        assert "CONTAINS" in KeywordPredicate("t", "word").render_sql()
        assert "IN ((" in SpatialPredicate(
            "p", BoundingBox(0, 0, 1, 1)
        ).render_sql()
        assert "= 7" in EqualsPredicate("id", 7).render_sql()

    def test_predicates_on_filters_by_column(self):
        preds = (
            RangePredicate("a", 0, 1),
            RangePredicate("b", 0, 1),
            EqualsPredicate("c", 2),
        )
        subset = predicates_on(preds, {"a", "c"})
        assert [p.column for p in subset] == ["a", "c"]

    def test_matching_ids_sorted(self, small_table):
        ids = RangePredicate("value", 10.0, 90.0).matching_ids(small_table)
        assert np.all(np.diff(ids) > 0)
