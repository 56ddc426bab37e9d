"""Engine caches are bounded: the array caches in bytes, the scalar ones in
entries.

The ``match`` and ``lookup`` caches hold arrays whose size ranges from a few
ids to a table-sized bitmap, so they are bounded by the summed ``nbytes`` of
what they hold (``ARRAY_CACHE_BYTES`` each), and a cached ``RowSet`` holds
only its smaller representation.  These tests pin the bound as a count —
``bytes_held`` never exceeds the budget, however much traffic passes — and
that evicting by bytes keeps batched execution bit-identical to sequential
execution (both paths put values of identical size in identical order).
"""

from __future__ import annotations

import pytest

from repro.db import InstrumentedCache, RangePredicate, RowSet, SelectQuery
from repro.db import database as database_module

from ..conftest import build_twitter_db, random_query_workload
from .test_batch_execution import assert_cache_state_identical, assert_results_identical

TINY_BUDGET = 48 << 10


class Sized:
    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


def test_byte_budget_evicts_least_recently_used_by_summed_nbytes():
    cache = InstrumentedCache("arrays", budget_bytes=100)
    cache.put("a", Sized(40))
    cache.put("b", Sized(40), tags=["t"])
    assert cache.get("a") is not None  # "b" is now least recently used
    cache.put("c", Sized(40))
    assert "b" not in cache and "a" in cache and "c" in cache
    assert (cache.stats.entries, cache.stats.bytes_held) == (2, 80)
    cache.put("a", Sized(10))  # replacing an entry re-counts its size
    assert cache.stats.bytes_held == 50
    cache.put("huge", Sized(101))  # larger than the budget on its own
    assert len(cache) == 0 and cache.stats.bytes_held == 0
    cache.put("d", Sized(30), tags=["t"])
    cache.put("e", Sized(30))
    assert cache.invalidate_tag("t") == 1
    assert (cache.stats.entries, cache.stats.bytes_held) == (1, 30)
    snapshot = cache.stats.snapshot()
    cache.clear()
    assert (cache.stats.entries, cache.stats.bytes_held) == (0, 0)
    assert cache.stats.delta(snapshot).to_dict()["entries"] == 0
    assert snapshot.to_dict()["bytes_held"] == 30


def test_entry_capped_caches_report_entries_and_no_bytes():
    cache = InstrumentedCache("scalars", capacity=2)
    for key in "abc":
        cache.put(key, 1.0)
    assert cache.stats.to_dict()["entries"] == 2
    assert cache.stats.to_dict()["bytes_held"] == 0


def test_true_time_cache_is_bounded(monkeypatch, small_table):
    """Regression: the oracle-time memo grew by one entry per distinct query
    ever timed.  It now shares the ``estimate`` cache's entry cap."""
    monkeypatch.setattr(database_module, "SCALAR_CACHE_ENTRIES", 16)
    database = database_module.Database()
    database.add_table(small_table)
    database.create_index("rows", "value")
    queries = [
        SelectQuery(
            table="rows",
            predicates=(RangePredicate("value", float(lo), lo + 5.0),),
            output=("id",),
        )
        for lo in range(40)
    ]
    first = [database.true_execution_time_ms(q) for q in queries]
    assert len(database._true_time_cache) == 16
    assert database.cache_stats().to_dict()["true_time"]["entries"] == 16
    # Evicted entries are recomputed to the same values.
    assert [database.true_execution_time_ms(q) for q in queries] == first


def _exploration_batches(database, n_batches: int) -> list[list[SelectQuery]]:
    """Batches of queries no earlier batch has issued (never-repeating)."""
    seen: set = set()
    batches = []
    for seed in range(n_batches):
        batch = []
        for query in random_query_workload(
            database, seed=100 + seed, n=30, duplicate_fraction=0.0
        ):
            if query.key() not in seen:
                seen.add(query.key())
                batch.append(query)
        batches.append(batch)
    return batches


def test_bytes_held_stays_within_budget_on_never_repeating_traffic(monkeypatch):
    monkeypatch.setattr(database_module, "ARRAY_CACHE_BYTES", TINY_BUDGET)
    put_bytes = {"match": 0, "lookup": 0}
    original_put = InstrumentedCache.put

    def counting_put(self, key, value, tags=()):
        if self.stats.name in put_bytes:
            put_bytes[self.stats.name] += value.nbytes
        original_put(self, key, value, tags)

    monkeypatch.setattr(InstrumentedCache, "put", counting_put)
    database = build_twitter_db(n_tweets=2_500, n_users=125, sample_fraction=0.05)
    for batch in _exploration_batches(database, 8):
        database.execute_batch(batch)
        for cache in (database._match_cache, database._lookup_cache):
            values = [entry.value for entry in cache._data.values()]
            assert cache.stats.bytes_held <= TINY_BUDGET
            assert cache.stats.bytes_held == sum(v.nbytes for v in values)
            assert cache.stats.entries == len(values)
        for rowset in (e.value for e in database._match_cache._data.values()):
            assert isinstance(rowset, RowSet)
            assert (rowset._ids is None) != (rowset._mask is None)
            assert rowset.nbytes == min(rowset.universe, 8 * len(rowset))
    # The traffic really was several budgets' worth.
    assert min(put_bytes.values()) >= 3 * TINY_BUDGET, put_bytes


@pytest.mark.parametrize("workload_seed", [0, 1])
def test_byte_eviction_keeps_batch_bit_identical(monkeypatch, workload_seed):
    """Mid-batch evictions happen at the same puts on both paths."""
    monkeypatch.setattr(database_module, "ARRAY_CACHE_BYTES", TINY_BUDGET // 4)
    db_seq, db_bat = (
        build_twitter_db(n_tweets=2_500, n_users=125, sample_fraction=0.05)
        for _ in range(2)
    )
    workload = random_query_workload(db_seq, seed=workload_seed, n=60)
    for _ in range(2):
        sequential = [db_seq.execute(query) for query in workload]
        batched, _ = db_bat.execute_batch(workload)
        assert_results_identical(sequential, batched)
        assert_cache_state_identical(db_seq, db_bat)
    assert db_seq.cache_stats().to_dict()["match"]["bytes_held"] > 0
