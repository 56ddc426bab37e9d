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
from repro.backends import sqlite_backend as sqlite_backend_module
from repro.db.database import Database, EngineProfile
from repro.db.types import BoundingBox
from repro.workloads import TwitterJoinWorkloadGenerator, TwitterWorkloadGenerator

from ..conftest import QTE_SAMPLE, random_query_workload
from .equivalence import assert_matches_memory


def row_queries(table: str) -> list[SelectQuery]:
    """Row queries on the 200-row every-kind table: an index-order scan,
    the same cut by LIMIT, a full scan, and one matching nothing."""
    by_value = HintSet(frozenset({"value"}))
    wide = (RangePredicate("value", 10.0, 90.0),)
    return [
        SelectQuery(table, wide, output=("id",), hints=by_value),
        SelectQuery(table, wide, output=("id",), hints=by_value, limit=7),
        SelectQuery(table, (KeywordPredicate("note", "alpha"),), output=("id",)),
        SelectQuery(table, (RangePredicate("value", 200.0, None),), output=("id",)),
    ]


def derived_db(table, row_ids, name: str = "derived") -> Database:
    """A database holding ``table.select_rows(row_ids)`` (base ids follow
    ``row_ids``, in that order) with the small_db indexes."""
    database = Database(profile=EngineProfile.deterministic())
    database.add_table(table.select_rows(row_ids, name))
    for column in ("value", "stamp", "note", "spot"):
        database.create_index(name, column)
    return database


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

    def test_index_scan_is_fetched_once_and_reordered(self, small_db):
        """An ``INDEXED BY`` scan yields ids in index order, not rowid
        order, with no engine sort; the backend restores local order."""
        with SqliteBackend() as backend:
            backend.ingest(small_db)
            hinted, limited, _, empty = row_queries("rows")
            compiled = backend.compile(hinted)
            assert "INDEXED BY" in compiled.sql and "ORDER BY" not in compiled.sql
            assert "ORDER BY" in backend.compile(limited).sql
            engine_order, n_fetched = backend._fetch_ids(compiled)
            assert n_fetched == 1
            assert not np.array_equal(engine_order, np.sort(engine_order))
            assert len(backend.execute(empty).row_ids) == 0
            assert_matches_memory(small_db, backend, row_queries("rows"))

    def test_sample_table_rows_take_the_sorted_path(self, twitter_db, sqlite_backend):
        assert sqlite_backend.catalog.monotone_ids[QTE_SAMPLE]
        by_time = HintSet(frozenset({"created_at"}))
        recent = (RangePredicate("created_at", 0.0, None),)
        queries = [
            SelectQuery(QTE_SAMPLE, recent, output=("id",), hints=by_time),
            SelectQuery(QTE_SAMPLE, recent, output=("id",), hints=by_time, limit=9),
        ]
        assert not any(sqlite_backend.compile(q).paired for q in queries)
        assert_matches_memory(twitter_db, sqlite_backend, queries)

    def test_non_monotone_base_ids_take_the_pair_path(self, small_table):
        """Base ids that do not rise with the local ids: sorting them would
        be wrong, so order comes from (mw_rowid, mw_base_rowid) couples."""
        shuffled = np.random.default_rng(3).permutation(200)[:120]
        database = derived_db(small_table, shuffled)
        with SqliteBackend() as backend:
            backend.ingest(database)
            assert not backend.catalog.monotone_ids["derived"]
            queries = row_queries("derived")
            assert all(backend.compile(q).paired for q in queries)
            expected = database.execute(queries[0]).row_ids
            assert not np.array_equal(expected, np.sort(expected))
            assert_matches_memory(database, backend, queries)

    def test_append_can_end_monotone_ids(self, small_table):
        """Rising ids at ingest, then an append whose base ids fall back
        below the loaded ones: the table switches to the pair path."""
        head = list(range(0, 100))
        tail = [150, 120, 199, 101]
        with SqliteBackend() as backend:
            backend.ingest(derived_db(small_table, head))
            assert backend.catalog.monotone_ids["derived"]
            assert not backend.compile(row_queries("derived")[0]).paired
            grown = derived_db(small_table, head + tail)
            backend.append_rows("derived", grown.table("derived"), len(head))
            assert not backend.catalog.monotone_ids["derived"]
            assert_matches_memory(grown, backend, row_queries("derived"))

    def test_append_keeps_monotone_ids_when_they_keep_rising(self, small_table):
        head, tail = list(range(0, 100)), [120, 150, 199]
        with SqliteBackend() as backend:
            backend.ingest(derived_db(small_table, head))
            grown = derived_db(small_table, head + tail)
            backend.append_rows("derived", grown.table("derived"), len(head))
            assert backend.catalog.monotone_ids["derived"]
            assert_matches_memory(grown, backend, row_queries("derived"))

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


class TestBinningPaths:
    """Heatmaps bin with SQLite's own ``floor()`` where the build has it and
    through the ``MW_BIN_ID`` UDF where it does not; both must equal
    ``compute_bin_ids`` exactly.  The connect-time probe is the parameter."""

    @pytest.fixture(params=["probed", "udf-fallback"])
    def backend(self, request, monkeypatch, small_db):
        if request.param == "udf-fallback":
            monkeypatch.setattr(
                sqlite_backend_module, "_has_native_floor", lambda conn: False
            )
        with SqliteBackend() as backend:
            assert request.param == "probed" or not backend._native_floor
            small_db.create_sample_table("rows", 0.5, name="rows_half", seed=2)
            backend.ingest(small_db)
            yield backend

    def test_bins_match_memory(self, backend, small_db):
        native = backend._native_floor
        everywhere = (SpatialPredicate("spot", BoundingBox(-10.0, -10.0, 10.0, 10.0)),)
        queries = [
            SelectQuery("rows", everywhere, group_by=BinGroupBy("spot", 2.0, 1.25)),
            # Cell sizes with no short decimal form, and negative cells.
            SelectQuery("rows", everywhere, group_by=BinGroupBy("spot", 0.1, 1 / 3)),
            SelectQuery(
                "rows", everywhere, group_by=BinGroupBy("spot", 0.7, 0.3), limit=50
            ),
            SelectQuery(
                "rows_half",
                (KeywordPredicate("note", "gamma"),),
                group_by=BinGroupBy("spot", 1.5, 1.5),
            ),
        ]
        for query in queries:
            sql = backend.compile(query).sql
            assert ("floor(" in sql) == native
            assert ("MW_BIN_ID(" in sql) != native
        assert_matches_memory(small_db, backend, queries)


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
            bins = backend.execute(bin_query)
            snapshot = backend.stats.snapshot()
            assert snapshot["n_queries"] == 2
            assert snapshot["n_row_queries"] == 1
            assert snapshot["n_bin_queries"] == 1
            assert snapshot["rows_returned"] == len(rows.row_ids) > 1
            assert snapshot["wall_ms_total"] == rows.wall_ms + bins.wall_ms > 0.0

    def test_row_queries_cross_the_boundary_once(self, twitter_db, sqlite_backend):
        """Count guard: however many ids a row query answers, one DB-API
        row is fetched for it; a bin query fetches one row per bin."""
        before = sqlite_backend.stats.snapshot()
        results = [
            sqlite_backend.execute(query)
            for query in random_query_workload(twitter_db, seed=61, n=30)
        ]
        after = sqlite_backend.stats.snapshot()
        delta = {key: after[key] - before[key] for key in after}
        row_results = [r for r in results if r.kind == "rows"]
        bin_results = [r for r in results if r.kind == "bins"]
        assert row_results and bin_results
        assert delta["n_row_queries"] == len(row_results)
        assert delta["rows_returned"] == sum(len(r.row_ids) for r in row_results)
        assert delta["rows_returned"] > delta["n_row_queries"]
        assert delta["rows_fetched"] == len(row_results) + sum(
            len(r.bins) for r in bin_results
        )

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
