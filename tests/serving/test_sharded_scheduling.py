"""Scheduler edge cases under sharding.

Two invariants the shard router must preserve:

* **outcome invariance** — scheduling policy (session affinity vs FIFO)
  changes only host-side wall behaviour; every user-visible outcome stays
  bit-identical;
* **affinity survives the scatter** — the scheduled order the router
  records (and ships) keeps each session's requests back-to-back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RewriteOptionSpace
from repro.serving import FifoScheduler, MalivaService, ScatterExecute
from repro.viz import TWITTER_TRANSLATOR
from repro.workloads import TwitterWorkloadGenerator

from tests.conftest import (
    TWITTER_ATTRS,
    build_session_stream,
    build_trained_maliva,
    build_twitter_db,
)


def _build_maliva(dataset_seed: int = 11):
    database = build_twitter_db(
        n_tweets=900, n_users=45, dataset_seed=dataset_seed, engine_seed=2
    )
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    queries = TwitterWorkloadGenerator(database, seed=21).generate(18)
    return build_trained_maliva(
        database, space, queries, qte="accurate", max_epochs=3, n_train=14
    )


@pytest.fixture(scope="module")
def stream_for():
    def build(maliva):
        return build_session_stream(maliva.database, n_sessions=5, n_steps=5, seed=47)

    return build


def _outcome_signature(outcome):
    result = outcome.result
    rows = None if result.row_ids is None else tuple(result.row_ids.tolist())
    bins = None if result.bins is None else tuple(sorted(result.bins.items()))
    return (
        outcome.option_label,
        outcome.planning_ms,
        outcome.execution_ms,
        outcome.viable,
        tuple(sorted(result.counters.as_dict().items())),
        rows,
        bins,
    )


def test_fifo_and_affinity_outcomes_identical_under_sharding(stream_for):
    affinity_maliva = _build_maliva()
    fifo_maliva = _build_maliva()
    stream = stream_for(affinity_maliva)
    affinity = MalivaService(
        affinity_maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=3, processes=False),
    )
    fifo = MalivaService(
        fifo_maliva,
        translator=TWITTER_TRANSLATOR,
        scheduler=FifoScheduler(),
        execute=ScatterExecute(n_shards=3, processes=False),
    )
    with affinity, fifo:
        lhs = affinity.answer_many(stream)
        rhs = fifo.answer_many(stream)
        assert [_outcome_signature(o) for o in lhs] == [
            _outcome_signature(o) for o in rhs
        ]
        # The policies really did execute in different orders.
        affinity_order = [r.session_id for r in affinity.stats.records]
        fifo_order = [r.session_id for r in fifo.stats.records]
        assert affinity_order != fifo_order
        assert sorted(filter(None, affinity_order)) == sorted(
            filter(None, fifo_order)
        )


def test_affinity_grouping_survives_saturation(stream_for):
    maliva = _build_maliva(dataset_seed=17)
    stream = stream_for(maliva)
    service = MalivaService(
        maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=2, processes=False),
    )
    with service:
        service.answer_many(stream)
        executed_sessions = [r.session_id for r in service.stats.records]
    # Sessions appear as contiguous runs in execution order: once a session
    # stops appearing, it never reappears.
    seen: list[str] = []
    for session in executed_sessions:
        if not seen or seen[-1] != session:
            assert session not in seen
            seen.append(session)
    assert len(seen) == len(set(executed_sessions))


def test_single_shard_degenerates_to_full_slice(stream_for):
    """n_shards=1 rows mode: one worker holds the whole row space."""
    maliva = _build_maliva(dataset_seed=23)
    stream = stream_for(maliva)[:8]
    service = MalivaService(
        maliva,
        translator=TWITTER_TRANSLATOR,
        execute=ScatterExecute(n_shards=1, processes=False),
    )
    with service:
        outcomes = service.answer_many(stream)
        assert len(outcomes) == len(stream)
        assert all(np.isfinite(o.total_ms) for o in outcomes)
