"""Batch execution equivalence: ``execute_batch`` == per-request ``execute``.

The tentpole invariant of the batched execution stage: for any workload
(mixed aggregate/row queries, hint sets, overlapping predicates, LIMITs,
sample-table rewrites, duplicates), any engine profile, and any cache
temperature, ``Database.execute_batch`` produces results bit-identical to
sequential ``Database.execute`` calls in the same order — row ids, bins,
work counters, ``base_ms``/``execution_ms``, obeyed-hints flags, and the
per-request engine-cache hit/miss deltas — and leaves the engine caches in
an identical state.

The property is checked on *twin databases* (same construction seeds): one
serves the workload sequentially, the other batched, and both the outcomes
and the post-workload cache counters must agree.  Noisy profiles exercise
the in-order fallback pipeline (RNG streams must be consumed identically);
the deterministic profile exercises the phase-separated fused path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import (
    BoundingBox,
    Database,
    EngineProfile,
    KeywordPredicate,
    RangePredicate,
    SpatialPredicate,
    bin_counts,
    bin_counts_many,
    build_bin_layout,
)

from ..conftest import build_twitter_db, random_query_workload

PROFILES = {
    "deterministic": EngineProfile.deterministic,
    "postgres": EngineProfile.postgres,
    "commercial": EngineProfile.commercial,
}


def _twin_dbs(profile_name: str) -> tuple[Database, Database]:
    build = lambda: build_twitter_db(  # noqa: E731 - tiny local factory
        n_tweets=2_500,
        n_users=125,
        sample_fraction=0.05,
        profile=PROFILES[profile_name](),
    )
    return build(), build()


def assert_results_identical(sequential, batched) -> None:
    assert len(sequential) == len(batched)
    for index, (left, right) in enumerate(zip(sequential, batched)):
        context = f"request {index}"
        assert left.base_ms == right.base_ms, context
        assert left.execution_ms == right.execution_ms, context
        assert left.counters.as_dict() == right.counters.as_dict(), context
        assert left.obeyed_hints == right.obeyed_hints, context
        assert left.cache_hits == right.cache_hits, context
        assert left.cache_misses == right.cache_misses, context
        assert left.plan_cached == right.plan_cached, context
        assert left.kind == right.kind, context
        assert left.result_size == right.result_size, context
        if left.bins is not None:
            assert right.bins == left.bins, context
        else:
            assert np.array_equal(left.row_ids, right.row_ids), context


def assert_cache_state_identical(db_a: Database, db_b: Database) -> None:
    left = {c.name: c.to_dict() for c in db_a.cache_stats().caches}
    right = {c.name: c.to_dict() for c in db_b.cache_stats().caches}
    assert left == right


# ----------------------------------------------------------------------
# The equivalence property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile_name", ["deterministic", "postgres", "commercial"])
@pytest.mark.parametrize("workload_seed", [0, 1])
def test_batch_bit_identical_to_sequential(profile_name, workload_seed):
    db_seq, db_bat = _twin_dbs(profile_name)
    workload = random_query_workload(db_seq, seed=workload_seed, n=40)
    sequential = [db_seq.execute(query) for query in workload]
    batched, sharing = db_bat.execute_batch(workload)
    assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_bat)
    assert sharing.n_queries == len(workload)
    # Duplicates in the workload must have been deduplicated, not re-run.
    assert sharing.n_distinct_scans < len(workload)
    assert sharing.shared_scans >= len(workload) - sharing.n_distinct_scans


def _count_engine_work(monkeypatch, database: Database) -> tuple[list, list]:
    """Wrap the scan kernel and every index's probe entry points.

    Returns ``(scans, probe_calls)``: one entry per ``scan_rows`` call, and
    one per ``lookup`` / ``lookup_batch`` call made by the engine (a batch
    sweep's internal per-predicate lookups are not counted again).
    """
    scans: list[int] = []
    probe_calls: list[str] = []
    depth = [0]
    real_scan = database._executor.scan_rows

    def counted_scan(plan, *args, **kwargs):
        scans.append(1)
        return real_scan(plan, *args, **kwargs)

    def counted_probe(real, name):
        def counted(arg):
            if depth[0] == 0:
                probe_calls.append(name)
            depth[0] += 1
            try:
                return real(arg)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(database._executor, "scan_rows", counted_scan)
    for table_name in database.table_names:
        for index in database.indexes_for(table_name).values():
            for name in ("lookup", "lookup_batch"):
                monkeypatch.setattr(
                    index, name, counted_probe(getattr(index, name), name)
                )
    return scans, probe_calls


def test_batch_computes_each_distinct_scan_once(monkeypatch):
    """Count guard: from cold caches, ``execute_batch`` runs the scan
    kernel once per distinct (scan, join, limit) pipeline and answers its
    probes in one sweep per index; sequential ``execute`` runs one scan per
    query and one index call per distinct probe."""
    db_seq, db_bat = _twin_dbs("deterministic")
    workload = random_query_workload(db_seq, seed=0, n=40)
    seq_scans, seq_probes = _count_engine_work(monkeypatch, db_seq)
    for query in workload:
        db_seq.execute(query)
    bat_scans, bat_probes = _count_engine_work(monkeypatch, db_bat)
    _, sharing = db_bat.execute_batch(workload)
    assert sharing.fused
    assert len(seq_scans) == len(workload)
    assert len(bat_scans) == sharing.n_distinct_scans < len(workload)
    assert set(bat_probes) == {"lookup_batch"}
    assert len(bat_probes) == sharing.n_probe_sweeps
    assert sharing.n_probe_sweeps < sharing.n_probes_computed <= len(seq_probes)


def test_warm_caches_preserve_equivalence():
    """Second pass over the same workload: every probe is a cache hit on
    both sides, and per-request hit/miss deltas still agree exactly."""
    db_seq, db_bat = _twin_dbs("deterministic")
    workload = random_query_workload(db_seq, seed=3, n=25)
    for _ in range(2):
        sequential = [db_seq.execute(query) for query in workload]
        batched, _ = db_bat.execute_batch(workload)
        assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_bat)
    # The warm pass sees hits where the cold pass missed.
    assert any(result.cache_hits > 0 for result in batched)


def test_fused_and_fallback_paths_cover_profiles():
    """Deterministic profiles take the phase-separated fused path; hinted
    workloads on hint-ignoring profiles must fall back to the in-order
    pipeline (the RNG draws interleave per request)."""
    db_det = build_twitter_db(n_tweets=2_500, n_users=125, sample_fraction=0.05)
    workload = random_query_workload(db_det, seed=5, n=15)
    _, sharing = db_det.execute_batch(workload)
    assert sharing.fused
    assert sharing.n_probe_sweeps > 0

    db_pg = build_twitter_db(
        n_tweets=2_500, n_users=125, sample_fraction=0.05,
        profile=EngineProfile.postgres(),
    )
    hinted = [q for q in random_query_workload(db_pg, seed=5, n=15) if q.hints]
    assert hinted, "workload should contain hinted queries"
    _, sharing = db_pg.execute_batch(hinted)
    assert not sharing.fused
    # An unhinted workload has no obey draws, so it can fuse even here.
    unhinted = [q.without_hints() for q in hinted]
    _, sharing = db_pg.execute_batch(unhinted)
    assert sharing.fused


def test_batch_after_mutation_sees_fresh_data():
    """``append_rows`` between batches must invalidate every shared
    structure — match/lookup caches, the engine's scan memo, and the
    whole-column bin layout — so no stale rows leak into later batches."""
    db_seq, db_bat = _twin_dbs("deterministic")
    workload = random_query_workload(db_seq, seed=7, n=20)
    sequential = [db_seq.execute(query) for query in workload]
    batched, _ = db_bat.execute_batch(workload)
    assert_results_identical(sequential, batched)

    tweets = db_seq.table("tweets")
    new_rows = {
        "id": np.arange(tweets.n_rows, tweets.n_rows + 50),
        "text": ["fresh mutation tweet"] * 50,
        "created_at": np.full(50, float(np.median(tweets.numeric("created_at")))),
        "coordinates": np.tile(
            np.median(tweets.points("coordinates"), axis=0), (50, 1)
        ),
        "users_statues_count": np.zeros(50, dtype=np.int64),
        "users_followers_count": np.zeros(50, dtype=np.int64),
        "user_id": np.zeros(50, dtype=np.int64),
    }
    db_seq.append_rows("tweets", new_rows)
    db_bat.append_rows("tweets", new_rows)

    sequential = [db_seq.execute(query) for query in workload]
    batched, _ = db_bat.execute_batch(workload)
    assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_bat)
    # And nothing serves stale shared state: a batched heatmap over the
    # inserted keyword must count exactly the 50 new rows.
    from repro.db import BinGroupBy, SelectQuery

    probe = SelectQuery(
        table="tweets",
        predicates=(KeywordPredicate("text", "mutation"),),
        group_by=BinGroupBy("coordinates", 0.5, 0.5),
    )
    probes, _ = db_bat.execute_batch([probe])
    assert sum(probes[0].bins.values()) == 50.0


def test_execute_batch_empty_and_singleton():
    db_seq, db_bat = _twin_dbs("deterministic")
    results, sharing = db_bat.execute_batch([])
    assert results == [] and sharing.n_queries == 0
    workload = random_query_workload(db_seq, seed=11, n=3)[:1]
    sequential = [db_seq.execute(workload[0])]
    batched, sharing = db_bat.execute_batch(workload)
    assert sharing.n_queries == 1
    assert_results_identical(sequential, batched)


# ----------------------------------------------------------------------
# The engine-lifetime scan memo (repeats across batches)
# ----------------------------------------------------------------------
def _micro_batches(workload, size: int = 8):
    return [workload[start:start + size] for start in range(0, len(workload), size)]


@pytest.mark.parametrize("profile_name", ["deterministic", "postgres", "commercial"])
def test_repeats_across_batches_bit_identical_to_sequential(profile_name):
    """Micro-batches that repeat earlier batches' pipelines are served from
    the scan memo and still equal sequential ``execute``: rows, bins,
    counters, times, per-request cache deltas and final cache state.  The
    noisy profiles draw hint-ignore RNG, so they take the in-order path."""
    db_seq, db_bat = _twin_dbs(profile_name)
    workload = random_query_workload(db_seq, seed=4, n=24)
    hit_batches = 0
    for _ in range(3):
        for batch in _micro_batches(workload):
            sequential = [db_seq.execute(query) for query in batch]
            hits_before = db_bat.scan_memo_stats().hits
            batched, sharing = db_bat.execute_batch(batch)
            assert_results_identical(sequential, batched)
            hit_batches += db_bat.scan_memo_stats().hits > hits_before
    assert_cache_state_identical(db_seq, db_bat)
    assert hit_batches > 0
    if profile_name != "deterministic":
        assert any(query.hints for query in workload) and not sharing.fused
    # The memo is not an engine cache: requests' deltas never count it.
    assert "scan_memo" not in {c.name for c in db_bat.cache_stats().caches}


def _heatmap_and_rows(keyword: str):
    from repro.db import BinGroupBy, SelectQuery

    predicates = (KeywordPredicate("text", keyword),)
    return [
        SelectQuery(
            table="tweets",
            predicates=predicates,
            group_by=BinGroupBy("coordinates", 0.5, 0.5),
        ),
        SelectQuery(table="tweets", predicates=predicates, output=("id",)),
    ]


def _fresh_rows(tweets, n_new: int = 50) -> dict:
    return {
        "id": np.arange(tweets.n_rows, tweets.n_rows + n_new),
        "text": ["fresh mutation tweet"] * n_new,
        "created_at": np.full(n_new, float(np.median(tweets.numeric("created_at")))),
        "coordinates": np.tile(
            np.median(tweets.points("coordinates"), axis=0), (n_new, 1)
        ),
        "users_statues_count": np.zeros(n_new, dtype=np.int64),
        "users_followers_count": np.zeros(n_new, dtype=np.int64),
        "user_id": np.zeros(n_new, dtype=np.int64),
    }


def _append_behind_the_engine(database: Database) -> None:
    tweets = database.table("tweets")
    tweets.append_rows(_fresh_rows(tweets))
    database.invalidate_table("tweets")


@pytest.mark.parametrize(
    "event",
    [
        lambda db: db.append_rows("tweets", _fresh_rows(db.table("tweets"))),
        _append_behind_the_engine,
        Database.clear_caches,
    ],
    ids=["append_rows", "invalidate_table", "clear_caches"],
)
def test_memoized_repeat_after_invalidation_is_fresh(event):
    db_seq, db_bat = _twin_dbs("deterministic")
    probes = _heatmap_and_rows("mutation")
    for _ in range(3):
        before, _ = db_bat.execute_batch(probes)
        [db_seq.execute(query) for query in probes]
    assert db_bat.scan_memo_stats().entries == 1
    event(db_seq)
    event(db_bat)
    assert db_bat.scan_memo_stats().entries == 0
    sequential = [db_seq.execute(query) for query in probes]
    batched, sharing = db_bat.execute_batch(probes)
    assert sharing.n_distinct_scans == 1
    assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_bat)
    added = len(batched[1].row_ids) - len(before[1].row_ids)
    assert sum(batched[0].bins.values()) - sum(before[0].bins.values()) == added
    if event is not Database.clear_caches:
        assert added == 50


def test_scan_memo_admits_on_second_sighting():
    _, database = _twin_dbs("deterministic")
    probes = _heatmap_and_rows("good")
    _, sharing = database.execute_batch(probes)
    assert sharing.n_distinct_scans == 1
    assert database.scan_memo_stats().entries == 0
    database.execute_batch(probes)
    stats = database.scan_memo_stats()
    assert stats.entries == 1 and stats.bytes_held > 0
    _, sharing = database.execute_batch(probes)
    assert database.scan_memo_stats().hits == 1
    assert sharing.n_distinct_scans == 0 and sharing.n_bin_results == 0
    assert sharing.shared_scans == len(probes)


def test_scan_memo_stays_within_its_byte_budget(monkeypatch):
    from repro.db import database as database_module

    budget = 64 << 10
    monkeypatch.setattr(database_module, "SCAN_MEMO_BYTES", budget)
    _, database = _twin_dbs("deterministic")
    workload = random_query_workload(database, seed=6, n=40)
    for _ in range(3):
        for batch in _micro_batches(workload):
            database.execute_batch(batch)
            assert database.scan_memo_stats().bytes_held <= budget
    stats = database.scan_memo_stats()
    assert stats.entries > 0 and stats.hits > 0


def test_returned_row_ids_are_read_only():
    _, database = _twin_dbs("deterministic")
    rows = _heatmap_and_rows("good")[1]
    for _ in range(3):
        results, _ = database.execute_batch([rows])
        with pytest.raises(ValueError):
            results[0].row_ids[0] = -1
    assert database.scan_memo_stats().hits == 1


# ----------------------------------------------------------------------
# Fused building blocks
# ----------------------------------------------------------------------
def test_lookup_batch_matches_lookup(small_db):
    rng = np.random.default_rng(2)
    spatial = [
        SpatialPredicate(
            "spot",
            BoundingBox(
                float(x0), float(y0), float(x0 + rng.uniform(0.5, 12)),
                float(y0 + rng.uniform(0.5, 12)),
            ),
        )
        for x0, y0 in rng.uniform(-12, 8, size=(20, 2))
    ]
    ranges = [
        RangePredicate("value", float(lo), float(lo + rng.uniform(1, 60)))
        for lo in rng.uniform(0, 80, size=20)
    ] + [RangePredicate("value", None, 50.0), RangePredicate("value", 50.0, None)]
    keywords = [KeywordPredicate("note", word) for word in ("alpha", "beta", "zzz")]
    for column, predicates in (("spot", spatial), ("value", ranges), ("note", keywords)):
        index = small_db.index("rows", column)
        fused = index.lookup_batch(predicates)
        for predicate, batch_lookup in zip(predicates, fused):
            single = index.lookup(predicate)
            assert np.array_equal(single.row_ids, batch_lookup.row_ids)
            assert single.entries_scanned == batch_lookup.entries_scanned
    assert small_db.index("rows", "spot").lookup_batch([]) == []


def test_bin_counts_many_matches_bin_counts(small_db):
    from repro.db import BinGroupBy

    table = small_db.table("rows")
    points = table.points("spot")
    group_by = BinGroupBy("spot", 2.5, 2.5)
    layout = build_bin_layout(points, group_by)
    rng = np.random.default_rng(4)
    selections = [
        np.sort(rng.choice(table.n_rows, size=size, replace=False)).astype(np.int64)
        for size in (0, 1, 17, 0, 120, table.n_rows, 0)
    ]
    for weight in (1.0, 12.5, 0.1):
        fused = bin_counts_many(layout, selections, weight=weight)
        assert len(fused) == len(selections)
        for ids, bins in zip(selections, fused):
            expected = bin_counts(points[ids], group_by, weight=weight)
            # Same keys in the same (ascending) order, same values and types.
            assert list(bins.items()) == list(expected.items())
            assert all(
                type(k) is int and type(v) is float for k, v in bins.items()
            )
