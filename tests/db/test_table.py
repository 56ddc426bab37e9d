"""Unit tests for columnar table storage and sampling."""

import numpy as np
import pytest

from repro.db import Column, ColumnKind, Table, TableSchema
from repro.errors import SchemaError


def point_schema() -> TableSchema:
    return TableSchema(
        name="pts",
        columns=(
            Column("id", ColumnKind.INT),
            Column("txt", ColumnKind.TEXT),
            Column("loc", ColumnKind.POINT),
        ),
    )


def build_table(n: int = 10) -> Table:
    return Table(
        point_schema(),
        {
            "id": np.arange(n),
            "txt": [f"row {i} word{i % 3}" for i in range(n)],
            "loc": np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
        },
    )


def row_token_sets(table: Table, column: str) -> list[set[str]]:
    packed = table.tokens(column)
    return [set(packed.row_tokens(row)) for row in range(packed.n_rows)]


class TestConstruction:
    def test_row_count(self):
        assert build_table(7).n_rows == 7

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            Table(point_schema(), {"id": np.arange(3)})

    def test_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Table(
                point_schema(),
                {
                    "id": np.arange(3),
                    "txt": ["a", "b"],
                    "loc": np.zeros((3, 2)),
                },
            )

    def test_bad_point_shape_raises(self):
        with pytest.raises(SchemaError):
            Table(
                point_schema(),
                {"id": np.arange(3), "txt": ["a"] * 3, "loc": np.zeros((3, 3))},
            )

    def test_int_column_coerced(self):
        table = build_table()
        assert table.numeric("id").dtype == np.int64


class TestAccessors:
    def test_typed_access_enforced(self):
        table = build_table()
        with pytest.raises(SchemaError):
            table.numeric("txt")
        with pytest.raises(SchemaError):
            table.points("id")
        with pytest.raises(SchemaError):
            table.texts("loc")
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_token_sets_cached(self):
        table = build_table()
        first = table.tokens("txt")
        assert first is table.tokens("txt")
        assert table.texts_tokenized == 10
        assert "word1" in first.row_tokens(1)
        assert first.ids.dtype == np.int32 and first.offsets.dtype == np.int64

    def test_token_sets_cached_per_column(self):
        """Regression: the cache was one slot, so the second TEXT column
        asked for came back with the first one's tokens."""
        schema = TableSchema(
            name="two",
            columns=(Column("a", ColumnKind.TEXT), Column("b", ColumnKind.TEXT)),
        )
        table = Table(schema, {"a": ["red fox", "red hen"], "b": ["blue", "green sky"]})
        assert row_token_sets(table, "a") == [{"red", "fox"}, {"red", "hen"}]
        assert row_token_sets(table, "b") == [{"blue"}, {"green", "sky"}]
        assert table.tokens("a") is not table.tokens("b")

    def test_append_extends_every_cached_token_column(self):
        schema = TableSchema(
            name="two",
            columns=(Column("a", ColumnKind.TEXT), Column("b", ColumnKind.TEXT)),
        )
        table = Table(schema, {"a": ["red fox"], "b": ["blue"]})
        cached_a, cached_b = table.tokens("a"), table.tokens("b")
        assert table.texts_tokenized == 2
        table.append_rows({"a": ["red hen", "owl"], "b": ["green sky", "sea"]})
        # Old rows are not tokenized again; both caches grew by the delta.
        assert table.texts_tokenized == 6
        assert table.tokens("a") is cached_a and table.tokens("b") is cached_b
        assert row_token_sets(table, "a") == [{"red", "fox"}, {"red", "hen"}, {"owl"}]
        assert row_token_sets(table, "b") == [{"blue"}, {"green", "sky"}, {"sea"}]
        # Known tokens keep their id; new ones extend the vocabulary.
        assert cached_a.vocabulary == ["red", "fox", "hen", "owl"]


class TestSampling:
    def test_sample_size_and_mapping(self):
        table = build_table(100)
        sample = table.sample(0.2, seed=3, name="pts_s")
        assert sample.n_rows == 20
        assert sample.is_sample
        assert sample.base_table == "pts"
        assert sample.sample_fraction == pytest.approx(0.2)
        # Sampled ids must be real base rows, in ascending order.
        base_ids = sample.base_row_ids
        assert base_ids is not None
        assert np.all(np.diff(base_ids) > 0)
        assert np.array_equal(sample.numeric("id"), base_ids)

    def test_sample_deterministic_by_seed(self):
        table = build_table(100)
        a = table.sample(0.1, seed=5, name="a")
        b = table.sample(0.1, seed=5, name="b")
        assert np.array_equal(a.base_row_ids, b.base_row_ids)

    def test_sample_of_sample_composes_fraction(self):
        table = build_table(100)
        nested = table.sample(0.5, seed=1, name="s1").sample(0.5, seed=2, name="s2")
        assert nested.base_table == "pts"
        assert nested.sample_fraction == pytest.approx(0.25)

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            build_table().sample(0.0, seed=1, name="bad")
        with pytest.raises(ValueError):
            build_table().sample(1.5, seed=1, name="bad")

    def test_to_base_ids_identity_for_base(self):
        table = build_table(10)
        ids = np.array([1, 5])
        assert np.array_equal(table.to_base_ids(ids), ids)


class TestSelectRows:
    def test_preserves_order_and_maps_ids(self):
        table = build_table(10)
        picked = table.select_rows([5, 2, 7], name="picked")
        assert picked.n_rows == 3
        assert list(picked.numeric("id")) == [5, 2, 7]
        assert list(picked.base_row_ids) == [5, 2, 7]
        assert picked.texts("txt")[0] == "row 5 word2"
