"""One scan kernel, three consumers: the emitted-cardinality contract.

PR 6 collapses every access path onto ``Executor.scan_rows``: sequential
execution, the batch executor, and shard workers all run the same kernel,
which emits per-stage :class:`~repro.db.sharding.ScanCardinalities` instead
of each consumer re-deriving counter charges.  These tests pin the
contract:

* ``charge_scan`` replayed from the emitted cardinalities reproduces the
  kernel's own counters exactly (charging is commutative integer adds);
* shard partial scans merge, via summed cardinalities and the router's
  canonical index entries, into the full engine's counters/rows/bins —
  across shard counts and engine profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import Database, EngineProfile
from repro.db.cost_model import WorkCounters
from repro.db.executor import ScanCardinalities, charge_scan
from repro.db.sharding import (
    ShardEngine,
    build_shard_specs,
    merge_scatter,
    scatter_eligible,
)

from tests.conftest import build_twitter_db, random_query_workload

PROFILES = {
    "deterministic": EngineProfile.deterministic,
    "postgres": EngineProfile.postgres,
}


def _build_db(profile_name: str, engine_seed: int = 3) -> Database:
    return build_twitter_db(
        n_tweets=1_200,
        dataset_seed=23,
        engine_seed=engine_seed,
        profile=PROFILES[profile_name](),
    )


# ----------------------------------------------------------------------
# charge_scan replay == the kernel's own accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("workload_seed", [7, 19])
def test_charge_scan_replays_kernel_counters(profile_name, workload_seed):
    database = _build_db(profile_name)
    workload = random_query_workload(database, seed=workload_seed, n=25)
    checked_indexed = 0
    for query in workload:
        plan = database.explain(query, obey_hints=True)
        if plan.join is not None:
            continue
        # apply_limit=False is the shard-worker shape: unscaled charges,
        # pre-LIMIT rows, so the replay below needs no LIMIT arithmetic.
        counters, row_ids, cards = database._executor.scan_rows(
            plan, apply_limit=False
        )
        assert cards.final_len == len(row_ids)
        # Replay the charge from the emitted cardinalities alone, with the
        # canonical entry counts the merge path would use.
        replayed = WorkCounters()
        entries = tuple(
            database.index(plan.scan.table, path.predicate.column).entries_for(
                path.predicate
            )
            for path in plan.scan.access
        )
        charge_scan(
            replayed,
            plan.scan,
            database.table(plan.scan.table).n_rows,
            entries,
            cards,
        )
        scan_fields = (
            "seq_rows",
            "index_probes",
            "index_entries",
            "intersect_entries",
            "fetched_rows",
            "residual_checks",
        )
        left = counters.as_dict()
        right = replayed.as_dict()
        for field in scan_fields:
            assert left[field] == right[field], (query, field)
        if plan.scan.access:
            assert len(cards.path_cand_lens) == len(plan.scan.access)
            checked_indexed += 1
    assert checked_indexed > 0


def test_cardinalities_merge_is_elementwise_sum():
    parts = [
        ScanCardinalities(
            path_rowset_lens=(3, 5), path_cand_lens=(3, 2), final_len=2
        ),
        ScanCardinalities(
            path_rowset_lens=(1, 0), path_cand_lens=(1, 1), final_len=1
        ),
    ]
    merged = ScanCardinalities.merge(parts)
    assert merged.path_rowset_lens == (4, 5)
    assert merged.path_cand_lens == (4, 3)
    assert merged.final_len == 3
    with pytest.raises(ValueError):
        ScanCardinalities.merge([])


# ----------------------------------------------------------------------
# Shard partial scans == the full engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("n_shards", [2, 3])
def test_partition_modes_merge_to_full_engine(profile_name, n_shards):
    database = _build_db(profile_name)
    workload = random_query_workload(database, seed=41, n=20)
    engines = [ShardEngine(spec) for spec in build_shard_specs(database, n_shards)]
    checked = 0
    for query in workload:
        plan = database.explain(query, obey_hints=True)
        if not scatter_eligible(plan):
            continue
        result = database.execute(query)
        reports = [engine.execute([plan]).reports[0] for engine in engines]
        counters, row_ids, bins = merge_scatter(database, plan, reports)
        assert counters.as_dict() == result.counters.as_dict()
        if result.row_ids is None:
            assert row_ids is None
        else:
            assert np.array_equal(row_ids, result.row_ids)
        assert bins == result.bins
        checked += 1
    assert checked > 10
