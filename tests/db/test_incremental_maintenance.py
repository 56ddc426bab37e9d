"""Incremental maintenance: ``extend`` is indistinguishable from a rebuild.

``Database.append_rows`` extends the token sets and the three index kinds
with the appended rows instead of rebuilding them.  The contract is that
nobody can tell: for any append schedule an extended structure answers
``lookup`` / ``lookup_batch`` / ``entries_for`` / ``most_common`` exactly
like one built from scratch on the grown table (values, dtypes, order,
``entries_scanned``), and a database that took k small appends executes
exactly like one that took a single bulk append or was built on the
concatenated table — virtual time is charged from those counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import TwitterConfig, build_twitter_tables
from repro.db import (
    BoundingBox,
    Column,
    ColumnKind,
    Database,
    EngineProfile,
    EqualsPredicate,
    KeywordPredicate,
    RangePredicate,
    SpatialPredicate,
    Table,
    TableSchema,
)
from repro.db.indexes import GridIndex, InvertedIndex, SortedIndex
from repro.workloads import TwitterJoinWorkloadGenerator

from ..conftest import TWITTER_ATTRS, random_query_workload
from .test_batch_execution import assert_results_identical

SCHEMA = TableSchema(
    name="rows",
    columns=(
        Column("key", ColumnKind.INT),
        Column("value", ColumnKind.FLOAT),
        Column("note", ColumnKind.TEXT),
        Column("tag", ColumnKind.TEXT),
        Column("spot", ColumnKind.POINT),
    ),
)
INDEXED = {
    "key": SortedIndex,
    "value": SortedIndex,
    "note": InvertedIndex,
    "tag": InvertedIndex,
    "spot": GridIndex,
}
WORDS = [f"w{i}" for i in range(12)]
TAGS = ["red", "green", "blue"]


def random_rows(rng, n: int, batch: int, outside: bool, first: bool = False) -> dict:
    """``n`` rows: keys and values tie with earlier batches, every batch
    brings a token no earlier one had, and ``outside`` batches leave the
    [0, 10]² extent the ``first`` non-empty batch pins down."""
    spots = rng.uniform(0.0, 10.0, (n, 2))
    if n and first:
        spots[0] = (0.0, 0.0)
        spots[-1] = (10.0, 10.0)
    if n and outside:
        spots[rng.integers(n)] = (10.0 + batch, -1.0)
    return {
        "key": rng.integers(0, 8, n),
        # Half-integers from a small range: exact ties across batches.
        "value": rng.integers(0, 20, n) / 2.0,
        "note": [
            " ".join(rng.choice(WORDS, size=3).tolist() + [f"batch{batch}"])
            for _ in range(n)
        ],
        "tag": [f"{rng.choice(TAGS)} b{batch % 3}" for _ in range(n)],
        "spot": spots,
    }


def probes(rng, table: Table) -> dict[str, list]:
    """Predicates per indexed column, hits and misses alike."""
    numeric = {}
    for column in ("key", "value"):
        values = table.numeric(column)
        low, high = sorted(rng.choice(values, size=2).tolist()) if len(values) else (0, 1)
        numeric[column] = [
            RangePredicate(column, low, high),
            RangePredicate(column, None, high),
            RangePredicate(column, low, None),
            RangePredicate(column, high + 100.0, None),
            EqualsPredicate(column, low),
            EqualsPredicate(column, -3.0),
        ]
    boxes = []
    for _ in range(6):
        (x0, x1), (y0, y1) = np.sort(rng.uniform(-2.0, 14.0, (2, 2)), axis=1).tolist()
        boxes.append(BoundingBox(x0, y0, x1, y1))
    boxes.append(BoundingBox(-1e9, -1e9, 1e9, 1e9))
    boxes.append(BoundingBox(3.0, 3.0, 3.0, 3.0))
    return {
        **numeric,
        "note": [KeywordPredicate("note", w) for w in WORDS[:4] + ["batch0", "batch2", "nope"]],
        "tag": [KeywordPredicate("tag", w) for w in TAGS + ["b1", "w0"]],
        "spot": [SpatialPredicate("spot", box) for box in boxes],
    }


def assert_same_lookup(left, right, context) -> None:
    assert left.entries_scanned == right.entries_scanned, context
    assert left.row_ids.dtype == right.row_ids.dtype == np.int64, context
    assert np.array_equal(left.row_ids, right.row_ids), context


def assert_same_index(extended, rebuilt, predicates, context) -> None:
    for predicate in predicates:
        where = f"{context}: {predicate!r}"
        assert_same_lookup(extended.lookup(predicate), rebuilt.lookup(predicate), where)
        assert extended.entries_for(predicate) == rebuilt.entries_for(predicate), where
    for predicate, left, right in zip(
        predicates, extended.lookup_batch(predicates), rebuilt.lookup_batch(predicates)
    ):
        assert_same_lookup(left, right, f"{context}: batch {predicate!r}")
    if isinstance(extended, InvertedIndex):
        assert extended.vocabulary_size == rebuilt.vocabulary_size, context
        for k in (1, 5, 10_000):
            assert extended.most_common(k) == rebuilt.most_common(k), context


@pytest.mark.parametrize("seed", range(12))
def test_extend_equals_rebuild_over_random_schedules(seed):
    rng = np.random.default_rng(seed)
    # A third of the schedules start from an empty table.
    sizes = [0 if seed % 3 == 0 else int(rng.integers(1, 60))]
    sizes += rng.choice([0, 1, 1, 7, 40], size=6).tolist()
    table = Table(SCHEMA, random_rows(rng, sizes[0], 0, outside=False, first=True))
    indexes = {column: kind(table, column) for column, kind in INDEXED.items()}
    n_extended = n_grid_rebuilds = 0
    for batch, n_new in enumerate(sizes[1:], start=1):
        outside = bool(rng.random() < 0.3)
        if batch % 2:
            # Build the grid's lazy sweep accelerators: a stale prefix sum
            # would misreport entries_scanned after the append.
            spot = probes(rng, table)["spot"]
            indexes["spot"].lookup_batch(spot)
            indexes["spot"].entries_for(spot[0])
        first_new = table.n_rows
        rows = random_rows(rng, n_new, batch, outside, first=first_new == 0)
        table.append_rows(rows)
        predicates = probes(rng, table)
        old, new = np.split(table.points("spot"), [first_new])
        extent_moved = bool(
            len(new)
            and (
                len(old) == 0
                or np.any(new < old.min(axis=0))
                or np.any(new > old.max(axis=0))
            )
        )
        for column, index in indexes.items():
            context = f"seed {seed} batch {batch} ({n_new} rows) {column}"
            if index.extend(table, first_new):
                assert column != "spot" or not extent_moved, context
                n_extended += 1
            else:
                # Only the grid may decline, and only when the extent moved.
                assert column == "spot" and extent_moved, context
                n_grid_rebuilds += 1
                index = indexes[column] = GridIndex(table, column)
            rebuilt = INDEXED[column](table, column)
            assert_same_index(index, rebuilt, predicates[column], context)
    assert n_extended >= 4 * (len(sizes) - 1)
    assert n_extended + n_grid_rebuilds == len(INDEXED) * (len(sizes) - 1)


def test_a_declined_extend_leaves_the_grid_untouched():
    rng = np.random.default_rng(3)
    table = Table(SCHEMA, random_rows(rng, 30, 0, outside=False, first=True))
    grid = GridIndex(table, "spot")
    table.append_rows(random_rows(rng, 10, 1, outside=False))
    assert grid.extend(table, 30)
    assert grid.n_entries == 40
    table.append_rows(random_rows(rng, 10, 2, outside=True))
    assert not grid.extend(table, 40)
    assert grid.n_entries == 40, "a declined extend leaves the index untouched"


# ----------------------------------------------------------------------
# Database level: k small appends == one bulk append == fresh build
# ----------------------------------------------------------------------
def _engine(tweets: Table, users: Table) -> Database:
    database = Database(profile=EngineProfile.deterministic())
    database.add_table(tweets)
    database.add_table(users)
    for attribute in TWITTER_ATTRS:
        database.create_index("tweets", attribute)
    database.create_index("users", "id")
    database.create_index("users", "tweet_cnt")
    return database


def _columns(table: Table, low: int, high: int) -> dict:
    return {c.name: table.column(c.name)[low:high] for c in table.schema.columns}


def _base_tables() -> tuple[Table, Table]:
    return build_twitter_tables(TwitterConfig(n_tweets=2_500, n_users=125, seed=9))


@pytest.fixture(scope="module")
def new_tweets() -> Table:
    return build_twitter_tables(TwitterConfig(n_tweets=400, n_users=125, seed=77))[0]


def test_small_appends_equal_bulk_append_equal_fresh_build(new_tweets):
    cuts = [0, 0, 1, 60, 61, 200, 400]  # a 0-row and two 1-row appends among them
    stepwise = _engine(*_base_tables())
    warmup = random_query_workload(stepwise, seed=5, n=10, sample_table=None)
    for low, high in zip(cuts, cuts[1:]):
        # Traffic between appends fills the caches, the join-key cache, the
        # bin layouts and the grid accelerators the next append must drop.
        stepwise.execute_batch(warmup)
        stepwise.append_rows("tweets", _columns(new_tweets, low, high))

    bulk = _engine(*_base_tables())
    bulk.execute_batch(warmup)
    bulk.append_rows("tweets", _columns(new_tweets, 0, 400))

    tweets, users = _base_tables()
    grown = {
        name: (
            np.concatenate([tweets.column(name), data])
            if isinstance(data, np.ndarray)
            else tweets.column(name) + data
        )
        for name, data in _columns(new_tweets, 0, 400).items()
    }
    fresh = _engine(Table(tweets.schema, grown), users)

    workload = random_query_workload(fresh, seed=47, n=40, sample_table=None)
    workload += TwitterJoinWorkloadGenerator(fresh, seed=8).generate(8)
    expected = [fresh.execute(query) for query in workload]
    for name, database in (("stepwise", stepwise), ("bulk", bulk)):
        assert database.table("tweets").n_rows == 2_900, name
        assert_results_identical(expected, [database.execute(q) for q in workload])
        for query in workload:
            for predicate in query.predicates:
                assert database.estimated_selectivity(
                    "tweets", predicate
                ) == fresh.estimated_selectivity("tweets", predicate), name
    # The batched executor shares probes through lookup_batch: same answers.
    for database in (fresh, stepwise, bulk):
        database.clear_caches()
    expected_batch, _ = fresh.execute_batch(workload)
    assert_results_identical(expected_batch, stepwise.execute_batch(workload)[0])
    assert_results_identical(expected_batch, bulk.execute_batch(workload)[0])
    assert stepwise.maintenance.rows_appended == 400
    assert stepwise.maintenance.texts_tokenized == 400
    assert stepwise.maintenance.indexes_extended > stepwise.maintenance.indexes_rebuilt


def test_lookups_taken_before_an_append_are_not_mutated(new_tweets):
    database = _engine(*_base_tables())
    table = database.table("tweets")
    keyword = sorted(table.tokens("text").row_tokens(0))[0]
    extent = BoundingBox(-1e9, -1e9, 1e9, 1e9)
    predicates = [
        KeywordPredicate("text", keyword),
        RangePredicate("created_at", 0.0, None),
        SpatialPredicate("coordinates", extent),
    ]
    before = [database.index_lookup("tweets", p) for p in predicates]
    rowset = database.match_rowset("tweets", predicates[0])
    copies = [lookup.row_ids.copy() for lookup in before]
    rows = _columns(new_tweets, 0, 50)
    rows["text"] = [f"{text} {keyword}" for text in rows["text"]]
    database.append_rows("tweets", rows)
    for lookup, copy in zip(before, copies):
        assert np.array_equal(lookup.row_ids, copy)
        assert lookup.row_ids.max() < 2_500
    assert np.array_equal(rowset.ids, copies[0])
    after = database.index_lookup("tweets", predicates[0])
    assert len(after.row_ids) == len(copies[0]) + 50


# ----------------------------------------------------------------------
# Maintenance work, in counts (the tier-1 guard against O(table) appends)
# ----------------------------------------------------------------------
def _inside_extent(table: Table, rows: dict) -> dict:
    points = table.points("coordinates")
    rows["coordinates"] = np.clip(
        rows["coordinates"], points.min(axis=0), points.max(axis=0)
    )
    return rows


def test_append_maintenance_is_counted_per_row_not_per_table(new_tweets):
    database = _engine(*_base_tables())
    assert database.maintenance.to_dict() == {
        "rows_appended": 0,
        "texts_tokenized": 0,
        "indexes_extended": 0,
        "indexes_rebuilt": 0,
    }
    tweets = database.table("tweets")
    database.append_rows("tweets", _inside_extent(tweets, _columns(new_tweets, 0, 100)))
    assert database.maintenance.to_dict() == {
        "rows_appended": 100,
        "texts_tokenized": 100,
        "indexes_extended": 3,
        "indexes_rebuilt": 0,
    }
    outside = _columns(new_tweets, 100, 101)
    outside["coordinates"] = tweets.points("coordinates").max(axis=0)[None, :] + 1.0
    database.append_rows("tweets", outside)
    assert database.maintenance.to_dict() == {
        "rows_appended": 101,
        "texts_tokenized": 101,
        "indexes_extended": 5,
        "indexes_rebuilt": 1,
    }
    assert isinstance(database.index("tweets", "coordinates"), GridIndex)
    # An invalidation that names no appended range rebuilds everything.
    database.invalidate_table("tweets")
    assert database.maintenance.indexes_rebuilt == 4
