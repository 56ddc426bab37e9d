"""Scatter/gather equivalence: sharded execution == the full engine.

The merge contract (DESIGN.md §4.3, ``repro/db/sharding.py``) promises that
row-range scattering a scatter-eligible plan across N shard engines and
gathering the partial reports reproduces the single engine's execution
bit-for-bit: work counters, result rows, and (weighted) bins.  These are
the property tests that pin it, over randomized workloads mixing index
scans, full scans, residuals, LIMITs, sample-table rewrites, and BIN_ID
aggregates.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.db import Database
from repro.db.sharding import (
    ShardEngine,
    build_shard_specs,
    merge_scatter,
    reslice_for_sync,
    scatter_eligible,
    slice_bounds,
    slice_table,
)

from tests.conftest import build_twitter_db, random_query_workload


@pytest.fixture(scope="module")
def shard_db() -> Database:
    return build_twitter_db(n_tweets=1_500, dataset_seed=31, engine_seed=3)


@pytest.fixture(scope="module")
def workload(shard_db):
    return random_query_workload(shard_db, seed=77, n=30)


def _scatter_one(database, engines, query):
    """Scatter one query and return the merged (counters, ids, bins)."""
    plan = database.explain(query, obey_hints=True)
    assert scatter_eligible(plan)
    reports = [engine.execute([plan]).reports[0] for engine in engines]
    return plan, merge_scatter(database, plan, reports)


def _assert_matches(result, merged):
    counters, row_ids, bins = merged
    assert counters.as_dict() == result.counters.as_dict()
    if result.row_ids is None:
        assert row_ids is None
    else:
        assert row_ids is not None
        assert np.array_equal(row_ids, result.row_ids)
    assert bins == result.bins


@pytest.mark.parametrize("n_shards", [2, 3, 5])
def test_partial_scatter_matches_full_engine(shard_db, workload, n_shards):
    engines = [ShardEngine(spec) for spec in build_shard_specs(shard_db, n_shards)]
    for query in workload:
        result = shard_db.execute(query)
        _plan, merged = _scatter_one(shard_db, engines, query)
        _assert_matches(result, merged)


def test_partial_scatter_batched_entries_match(shard_db, workload):
    """A whole batch through each shard at once (the serving-layer shape),
    sent cold and then again with every shard's caches warm."""
    engines = [ShardEngine(spec) for spec in build_shard_specs(shard_db, 3)]
    queries = workload[:12]
    plans = [shard_db.explain(query, obey_hints=True) for query in queries]
    results = [shard_db.execute(query) for query in queries]
    for _pass in ("cold", "warm"):
        replies = [engine.execute(plans) for engine in engines]
        for position, (result, plan) in enumerate(zip(results, plans)):
            merged = merge_scatter(
                shard_db, plan, [reply.reports[position] for reply in replies]
            )
            _assert_matches(result, merged)
        for reply in replies:
            assert reply.physical_counters.total_ops() > 0
            assert reply.wall_s >= 0.0
    assert all(reply.cache_hits > 0 for reply in replies)


def test_shard_batch_sweeps_each_index_once(shard_db, workload):
    """A cold batch probes each shard index in one sweep, even when a column
    is an access path in one plan and a residual predicate in another."""
    engine = ShardEngine(build_shard_specs(shard_db, 2)[0])
    sweeps: dict[tuple[str, str], int] = {}

    def counted(key, lookup_batch):
        def wrapper(predicates):
            sweeps[key] = sweeps.get(key, 0) + 1
            return lookup_batch(predicates)

        return wrapper

    for table_name in engine.database.table_names:
        for column, index in engine.database.indexes_for(table_name).items():
            key = (table_name, column)
            index.lookup_batch = counted(key, index.lookup_batch)

    queries = workload[:12]
    plans = [shard_db.explain(query, obey_hints=True) for query in queries]
    access_columns = {
        (plan.scan.table, path.predicate.column)
        for plan in plans
        for path in plan.scan.access
    }
    residual_columns = {
        (plan.scan.table, predicate.column)
        for plan in plans
        for predicate in plan.scan.residual
    }
    overlapping = {("tweets", c) for c in ("text", "created_at", "coordinates")}
    assert overlapping <= access_columns & residual_columns

    reply = engine.execute(plans)
    assert overlapping <= sweeps.keys()
    assert set(sweeps.values()) == {1}, sweeps
    others = ShardEngine(build_shard_specs(shard_db, 2)[1]).execute(plans)
    for position, (query, plan) in enumerate(zip(queries, plans)):
        merged = merge_scatter(
            shard_db, plan, [reply.reports[position], others.reports[position]]
        )
        _assert_matches(shard_db.execute(query), merged)


def test_shard_spec_is_pickle_safe(shard_db, workload):
    specs = build_shard_specs(shard_db, 2)
    thawed = [pickle.loads(pickle.dumps(spec)) for spec in specs]
    engines = [ShardEngine(spec) for spec in thawed]
    for query in workload[:6]:
        result = shard_db.execute(query)
        _plan, merged = _scatter_one(shard_db, engines, query)
        _assert_matches(result, merged)


def test_sync_table_propagates_append():
    database = build_twitter_db(n_tweets=400, dataset_seed=5, engine_seed=1)
    queries = random_query_workload(database, seed=9, n=10, sample_table=None)
    engines = [ShardEngine(spec) for spec in build_shard_specs(database, 3)]
    # Warm both sides, then mutate the base table.
    for query in queries[:3]:
        result = database.execute(query)
        _plan, merged = _scatter_one(database, engines, query)
        _assert_matches(result, merged)
    tweets = database.table("tweets")
    take = {
        column.name: tweets.column(column.name)[:25]
        if not isinstance(tweets.column(column.name), list)
        else tweets.column(column.name)[:25]
        for column in tweets.schema.columns
    }
    database.append_rows("tweets", take)
    indexed = tuple(sorted(database.indexes_for("tweets")))
    for engine, fresh in zip(engines, reslice_for_sync(database, "tweets", 3)):
        engine.sync_table(fresh, indexed)
    for query in queries:
        result = database.execute(query)
        _plan, merged = _scatter_one(database, engines, query)
        _assert_matches(result, merged)


def test_slice_bounds_partition_rows():
    for n_rows in (0, 1, 5, 7, 100):
        for n_shards in (1, 2, 3, 8):
            bounds = slice_bounds(n_rows, n_shards)
            assert len(bounds) == n_shards
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n_rows
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start


def test_slice_table_maps_back_to_base_ids(shard_db):
    tweets = shard_db.table("tweets")
    part = slice_table(tweets, 10, 40)
    assert part.name == tweets.name
    assert part.n_rows == 30
    assert np.array_equal(
        part.to_base_ids(np.arange(30)), np.arange(10, 40, dtype=np.int64)
    )
    sample = shard_db.table("tweets_qte_sample")
    piece = slice_table(sample, 3, 9)
    assert piece.sample_fraction == sample.sample_fraction
    assert np.array_equal(
        piece.to_base_ids(np.arange(6)), sample.to_base_ids(np.arange(3, 9))
    )


def test_limit_queries_ship_bounded_row_ids(shard_db, workload):
    """No shard ships more than ``limit`` rows — the router keeps at most
    that many, and shard concatenation is the canonical prefix order."""
    engines = [ShardEngine(spec) for spec in build_shard_specs(shard_db, 2)]
    limited = [q for q in workload if q.limit is not None]
    assert limited, "workload should include LIMIT queries"
    for query in limited:
        result = shard_db.execute(query)
        plan = shard_db.explain(query, obey_hints=True)
        reports = [engine.execute([plan]).reports[0] for engine in engines]
        for report in reports:
            assert report.row_ids is not None
            assert len(report.row_ids) <= plan.limit
        _assert_matches(result, merge_scatter(shard_db, plan, reports))


def test_entries_for_matches_lookup(shard_db, workload):
    """The canonical-entries shortcut equals the real lookup's accounting."""
    checked = 0
    for query in workload:
        plan = shard_db.explain(query, obey_hints=True)
        for path in plan.scan.access:
            index = shard_db.index(plan.scan.table, path.predicate.column)
            assert index is not None
            assert index.entries_for(path.predicate) == (
                index.lookup(path.predicate).entries_scanned
            )
            checked += 1
    assert checked > 0
