"""Database facade tests: catalog, profiles, noise, caching, memoization."""

import numpy as np
import pytest

from repro.db import (
    Database,
    EngineProfile,
    HintSet,
    KeywordPredicate,
    RangePredicate,
    SelectQuery,
    apply_hints,
)
from repro.errors import SchemaError


def rows_query(**kwargs) -> SelectQuery:
    defaults = dict(
        table="rows",
        predicates=(
            KeywordPredicate("note", "alpha"),
            RangePredicate("value", 10.0, 60.0),
        ),
        output=("id",),
    )
    defaults.update(kwargs)
    return SelectQuery(**defaults)


class TestCatalog:
    def test_duplicate_table_raises(self, small_table):
        database = Database()
        database.add_table(small_table)
        with pytest.raises(SchemaError):
            database.add_table(small_table)

    def test_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            Database().table("ghost")

    def test_duplicate_index_raises(self, small_db):
        with pytest.raises(SchemaError):
            small_db.create_index("rows", "value")

    def test_index_kind_matches_column(self, small_db):
        assert small_db.index("rows", "value").kind == "btree"
        assert small_db.index("rows", "note").kind == "inverted"
        assert small_db.index("rows", "spot").kind == "rtree"
        assert small_db.index("rows", "id") is None

    def test_indexes_for(self, small_db):
        assert set(small_db.indexes_for("rows")) == {"value", "stamp", "note", "spot"}

    def test_sample_table_mirrors_indexes(self, small_db):
        sample = small_db.create_sample_table("rows", 0.25, name="rows_s", seed=3)
        assert sample.n_rows == 50
        assert set(small_db.indexes_for("rows_s")) == {
            "value",
            "stamp",
            "note",
            "spot",
        }
        # Statistics exist for the new table.
        assert small_db.stats("rows_s").n_rows == 50

    def test_default_sample_name(self, small_db):
        sample = small_db.create_sample_table("rows", 0.2, seed=3)
        assert sample.name == "rows_sample20"


class TestExecutionBehaviour:
    def test_deterministic_profile_is_noiseless(self, small_db):
        query = rows_query()
        a = small_db.execute(query)
        b = small_db.execute(query)
        assert a.execution_ms == b.execution_ms == a.base_ms

    def test_noise_is_multiplicative_and_seeded(self, small_table):
        def run(seed):
            database = Database(
                profile=EngineProfile(name="noisy", noise_sigma=0.2), seed=seed
            )
            database.add_table(small_table)
            database.create_index("rows", "value")
            return [
                database.execute(
                    rows_query(predicates=(RangePredicate("value", 0, 70),))
                ).execution_ms
                for _ in range(5)
            ]

        first = run(seed=1)
        second = run(seed=1)
        third = run(seed=2)
        assert first == second
        assert first != third
        assert len(set(first)) > 1  # noise varies between runs

    def test_hints_ignored_with_probability_one(self, small_table):
        database = Database(
            profile=EngineProfile(name="stubborn", hint_ignore_prob=1.0, noise_sigma=0.0)
        )
        database.add_table(small_table)
        for column in ("value", "note"):
            database.create_index("rows", column)
        hinted = apply_hints(rows_query(), HintSet(frozenset({"value", "note"})))
        result = database.execute(hinted)
        assert not result.obeyed_hints
        # The engine's own (cheaper-estimated) plan was used instead.
        own = database.explain(hinted, obey_hints=False)
        assert result.plan.describe() == own.describe()

    def test_true_execution_time_is_memoized_and_noiseless(self, small_db):
        query = rows_query()
        t1 = small_db.true_execution_time_ms(query)
        t2 = small_db.true_execution_time_ms(query)
        assert t1 == t2
        assert t1 == pytest.approx(small_db.execute(query).base_ms)

    def test_true_result_matches_execute(self, small_db):
        query = rows_query()
        assert np.array_equal(
            small_db.true_result(query).row_ids, small_db.execute(query).row_ids
        )

    def test_commercial_buffer_cache_speeds_repeats(self, small_table):
        database = Database(
            profile=EngineProfile(
                name="cachey",
                buffer_cache=True,
                cache_hit_factor=0.4,
                noise_sigma=0.0,
                instability_prob=0.0,
            )
        )
        database.add_table(small_table)
        database.create_index("rows", "value")
        query = apply_hints(
            rows_query(predicates=(RangePredicate("value", 0, 70),)),
            HintSet(frozenset({"value"})),
        )
        cold = database.execute(query)
        warm = database.execute(query)
        assert warm.execution_ms < cold.execution_ms
        assert warm.execution_ms == pytest.approx(cold.execution_ms * 0.4)


class TestSelectivities:
    def test_true_selectivity(self, small_db):
        predicate = RangePredicate("value", 0.0, 50.0)
        expected = predicate.mask(small_db.table("rows")).mean()
        assert small_db.true_selectivity("rows", predicate) == pytest.approx(expected)

    def test_match_ids_uses_cache(self, small_db):
        predicate = RangePredicate("value", 5.0, 95.0)
        first = small_db.match_rowset("rows", predicate)
        second = small_db.match_rowset("rows", predicate)
        assert first is second  # memoized object identity
        # The cached set holds one array; ids of a bitmap-held set are
        # derived per call, equal every time.
        assert first.nbytes in (first.universe, 8 * len(first))
        assert np.array_equal(small_db.match_ids("rows", predicate), first.ids)

    def test_estimate_cardinality_join(self, twitter_db):
        from repro.db import JoinSpec

        query = SelectQuery(
            table="tweets",
            predicates=(RangePredicate("created_at", 0.0, 1e7),),
            output=("id",),
            join=JoinSpec(
                "users", "user_id", "id", (RangePredicate("tweet_cnt", 0, 100),)
            ),
        )
        plain = SelectQuery(
            table="tweets",
            predicates=(RangePredicate("created_at", 0.0, 1e7),),
            output=("id",),
        )
        assert twitter_db.estimate_cardinality(query) < twitter_db.estimate_cardinality(
            plain
        )

    def test_clear_caches(self, small_db):
        predicate = RangePredicate("value", 5.0, 95.0)
        first = small_db.match_rowset("rows", predicate)
        small_db.clear_caches()
        second = small_db.match_rowset("rows", predicate)
        assert first is not second
        assert np.array_equal(first.ids, second.ids)


class TestKeyLookup:
    def test_sorted_key_structures(self, twitter_db):
        sorted_keys, permutation = twitter_db.key_lookup("users", "id")
        users = twitter_db.table("users")
        assert np.all(np.diff(sorted_keys) >= 0)
        assert np.array_equal(users.numeric("id")[permutation], sorted_keys)
