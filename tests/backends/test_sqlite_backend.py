"""SqliteBackend: the always-on reference backend's equivalence contract.

Acceptance pin: on the deterministic simulation profile, every query the
workload generators emit — heatmaps, hinted scans, joins, LIMITs,
sample-table rewrites — returns rows/bins *identical* to the in-memory
engine, while SQLite's EXPLAIN shows the compiled hints actually honored.
"""

import numpy as np
import pytest

from repro.backends import (
    BackendError,
    SqliteBackend,
    create_backend,
    sqlite_profile,
)
from repro.db import (
    BinGroupBy,
    EqualsPredicate,
    HintSet,
    KeywordPredicate,
    RangePredicate,
    SelectQuery,
    SpatialPredicate,
)
from repro.db.types import BoundingBox
from repro.workloads import TwitterJoinWorkloadGenerator, TwitterWorkloadGenerator

from ..conftest import QTE_SAMPLE, random_query_workload
from .equivalence import assert_matches_memory


@pytest.fixture(scope="module")
def sqlite_backend(request):
    twitter_db = request.getfixturevalue("twitter_db")
    backend = SqliteBackend()
    backend.ingest(twitter_db)
    yield backend
    backend.close()


class TestEquivalence:
    def test_randomized_workload(self, twitter_db, sqlite_backend):
        """Heatmap/row mix, random hints, LIMITs, sample tables, duplicates."""
        queries = random_query_workload(twitter_db, seed=47, n=40)
        assert_matches_memory(twitter_db, sqlite_backend, queries)

    def test_join_workload(self, twitter_db, sqlite_backend):
        generator = TwitterJoinWorkloadGenerator(twitter_db, seed=8)
        assert_matches_memory(twitter_db, sqlite_backend, generator.generate(12))

    def test_hinted_workload(self, twitter_db, sqlite_backend):
        generator = TwitterWorkloadGenerator(twitter_db, seed=15)
        hinted = [
            query.with_hints(hints)
            for query in generator.generate(6)
            for hints in (HintSet(), HintSet(frozenset({"created_at"})))
        ]
        assert_matches_memory(twitter_db, sqlite_backend, hinted)

    def test_every_column_kind(self, small_db):
        """INT equals, FLOAT/TIMESTAMP ranges, TEXT keyword, POINT box and
        rectangular-cell bins on the 200-row every-kind table."""
        with SqliteBackend() as backend:
            backend.ingest(small_db)
            queries = [
                SelectQuery(
                    "rows", (EqualsPredicate("id", 5.0),), output=("id",)
                ),
                SelectQuery(
                    "rows",
                    (RangePredicate("value", 20.0, None),),
                    output=("id",),
                    limit=17,
                ),
                SelectQuery(
                    "rows",
                    (
                        KeywordPredicate("note", "alpha"),
                        RangePredicate("stamp", None, 800.0),
                    ),
                    output=("id",),
                ),
                SelectQuery(
                    "rows",
                    (SpatialPredicate("spot", BoundingBox(-5.0, -5.0, 5.0, 5.0)),),
                    output=("id",),
                ),
                SelectQuery(
                    "rows",
                    (KeywordPredicate("note", "gamma"),),
                    group_by=BinGroupBy("spot", 2.0, 1.25),
                ),
            ]
            assert_matches_memory(small_db, backend, queries)

    def test_appended_rows_match_memory(self, small_db):
        """Two appends (every column kind): only the new rows are inserted
        and the engine answers like the in-memory table that grew."""
        queries = [
            SelectQuery("rows", (RangePredicate("value", 20.0, None),), output=("id",)),
            SelectQuery("rows", (KeywordPredicate("note", "omega"),), output=("id",)),
            SelectQuery(
                "rows",
                (SpatialPredicate("spot", BoundingBox(-5.0, -5.0, 5.0, 5.0)),),
                group_by=BinGroupBy("spot", 2.0, 1.25),
            ),
            SelectQuery("rows", (EqualsPredicate("id", 203.0),), output=("id",)),
        ]
        with SqliteBackend() as backend:
            backend.ingest(small_db)
            table = small_db.table("rows")
            for first in (200, 203):
                small_db.append_rows(
                    "rows",
                    {
                        "id": np.arange(first, first + 3),
                        "value": np.array([10.0, 55.5, 99.0]),
                        "stamp": np.array([1.0, 2.0, 3.0]),
                        "note": ["omega alpha", "beta", "Omega!"],
                        "spot": np.array([[0.0, 0.0], [4.9, -4.9], [9.0, 9.0]]),
                    },
                )
                backend.append_rows("rows", table, first)
            assert backend._run("SELECT COUNT(*) FROM rows", ()) == [(206,)]
            assert len(small_db.execute(queries[1]).row_ids) == 4
            assert_matches_memory(small_db, backend, queries)

    def test_append_to_unknown_table_raises(self, small_db):
        with SqliteBackend() as backend:
            with pytest.raises(BackendError, match="never ingested"):
                backend.append_rows("rows", small_db.table("rows"), 0)

    def test_sample_table_bins_are_weighted(self, twitter_db, sqlite_backend):
        assert sqlite_backend.catalog.weights[QTE_SAMPLE] == pytest.approx(50.0)
        query = SelectQuery(
            QTE_SAMPLE,
            (RangePredicate("created_at", 0.0, None),),
            group_by=BinGroupBy("coordinates", 4.0, 4.0),
        )
        assert_matches_memory(twitter_db, sqlite_backend, [query])


class TestHintsAndExplain:
    def test_index_hint_is_honored_in_plan(self, sqlite_backend):
        query = SelectQuery(
            "tweets",
            (RangePredicate("created_at", 0.0, 100_000.0),),
            output=("id",),
            hints=HintSet(frozenset({"created_at"})),
        )
        plan = " ".join(sqlite_backend.explain(query))
        assert "ix_tweets_created_at" in plan

    def test_seq_scan_hint_disables_indexes(self, sqlite_backend):
        query = SelectQuery(
            "tweets",
            (RangePredicate("created_at", 0.0, 100_000.0),),
            output=("id",),
            hints=HintSet(),
        )
        compiled = sqlite_backend.compile(query)
        assert "NOT INDEXED" in compiled.sql
        plan = " ".join(sqlite_backend.explain(query))
        assert "ix_tweets_created_at" not in plan

    def test_explain_non_empty(self, sqlite_backend):
        query = SelectQuery(
            "tweets", (KeywordPredicate("text", "covid"),), output=("id",)
        )
        plan = sqlite_backend.explain(query)
        assert plan and all(isinstance(line, str) for line in plan)

    def test_only_numeric_indexes_created(self, sqlite_backend):
        columns = {
            column
            for table, column in sqlite_backend.catalog.indexes
            if table == "tweets"
        }
        assert "created_at" in columns
        assert "text" not in columns
        assert "coordinates" not in columns


class TestLifecycleAndStats:
    def test_stats_counters(self, twitter_db):
        with SqliteBackend() as backend:
            backend.ingest(twitter_db)
            row_query = SelectQuery(
                "tweets", (KeywordPredicate("text", "covid"),), output=("id",)
            )
            bin_query = SelectQuery(
                "tweets",
                (KeywordPredicate("text", "covid"),),
                group_by=BinGroupBy("coordinates", 2.0, 2.0),
            )
            rows = backend.execute(row_query)
            backend.execute(bin_query)
            snapshot = backend.stats.snapshot()
            assert snapshot["n_queries"] == 2
            assert snapshot["n_row_queries"] == 1
            assert snapshot["n_bin_queries"] == 1
            assert snapshot["rows_returned"] == len(rows.row_ids)
            assert snapshot["wall_ms_total"] > 0.0
            assert rows.wall_ms >= 0.0

    def test_double_ingest_raises(self, small_db):
        with SqliteBackend() as backend:
            backend.ingest(small_db)
            with pytest.raises(BackendError, match="already ingested"):
                backend.ingest(small_db)

    def test_close_is_idempotent(self, small_db):
        backend = SqliteBackend()
        backend.ingest(small_db)
        backend.close()
        backend.close()

    def test_create_backend_registry(self):
        backend = create_backend("sqlite")
        try:
            assert isinstance(backend, SqliteBackend)
            assert backend.profile is sqlite_profile()
            assert backend.name == "sqlite"
        finally:
            backend.close()
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("postgres")
