"""MalivaService: serving semantics over shared caches.

The central contract (ISSUE acceptance criterion): serving a 100-request
interleaved session workload produces per-request outcomes identical in
viability — and, on the deterministic profile, in virtual time — to
sequential ``Maliva.answer()`` calls, while the caches only change how fast
the middleware host gets there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import SelectQuery
from repro.core import Maliva
from repro.errors import QueryError, TrainingError
from repro.serving import (
    FifoScheduler,
    MalivaService,
    SessionAffinityScheduler,
    VizRequest,
    interleave,
    requests_from_steps,
)
from repro.viz import TWITTER_TRANSLATOR

from ..conftest import TEST_TAU_MS


@pytest.fixture()
def service(serving_maliva) -> MalivaService:
    return MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)


@pytest.fixture(scope="session")
def interleaved_stream(session_steps):
    stream = interleave(
        requests_from_steps(steps, session_id)
        for session_id, steps in session_steps.items()
    )
    assert len(stream) == 100
    return stream


# ----------------------------------------------------------------------
# Acceptance: service == sequential facade, request by request
# ----------------------------------------------------------------------
def test_answer_many_matches_sequential_answers_over_100_requests(
    service, serving_maliva, interleaved_stream
):
    outcomes = service.answer_many(interleaved_stream)
    assert len(outcomes) == 100
    for request, outcome in zip(interleaved_stream, outcomes):
        query, tau_ms = service.resolve(request)
        sequential = serving_maliva.answer(query, tau_ms=tau_ms)
        assert outcome.viable == sequential.viable
        # Deterministic profile: virtual times are bit-identical too.
        assert outcome.planning_ms == sequential.planning_ms
        assert outcome.execution_ms == sequential.execution_ms
        assert outcome.rewritten.key() == sequential.rewritten.key()


def test_warm_pass_is_virtually_identical_and_hits_decision_cache(
    service, interleaved_stream
):
    cold = service.answer_many(interleaved_stream)
    warm = service.answer_many(interleaved_stream)
    for first, second in zip(cold, warm):
        assert first.total_ms == second.total_ms
        assert first.viable == second.viable
        if first.result.row_ids is not None:
            np.testing.assert_array_equal(first.result.row_ids, second.result.row_ids)
        else:
            assert first.result.bins == second.result.bins
    warm_records = service.stats.records[len(interleaved_stream):]
    assert all(record.decision_cached for record in warm_records)
    assert service.stats.throughput_qps > 0


# ----------------------------------------------------------------------
# Per-request deadlines
# ----------------------------------------------------------------------
def test_per_request_tau_isolation(service, interleaved_stream):
    request = interleaved_stream[0]
    generous = service.answer_one(
        VizRequest(payload=request.payload, tau_ms=1e6)
    )
    stingy = service.answer_one(
        VizRequest(payload=request.payload, tau_ms=1e-3)
    )
    # A huge budget is trivially met; a sub-millisecond one never is.
    assert generous.tau_ms == 1e6 and generous.viable
    assert stingy.tau_ms == pytest.approx(1e-3) and not stingy.viable
    assert stingy.reason == "timeout"
    # The stingy deadline must not poison the default-budget request.
    default = service.answer_one(VizRequest(payload=request.payload))
    assert default.tau_ms == TEST_TAU_MS


def test_payload_tau_and_explicit_tau_precedence(service, interleaved_stream):
    from dataclasses import replace

    viz = interleaved_stream[0].payload
    assert service.resolve(VizRequest(payload=viz))[1] == TEST_TAU_MS
    tagged = replace(viz, tau_ms=123.0)
    assert service.resolve(VizRequest(payload=tagged))[1] == 123.0
    assert service.resolve(VizRequest(payload=tagged, tau_ms=77.0))[1] == 77.0


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def test_affinity_scheduler_groups_sessions_preserving_arrival_order(
    interleaved_stream,
):
    order = SessionAffinityScheduler().order(interleaved_stream)
    assert sorted(order) == list(range(len(interleaved_stream)))
    seen_sessions: list[str] = []
    for index in order:
        session = interleaved_stream[index].effective_session()
        if not seen_sessions or seen_sessions[-1] != session:
            seen_sessions.append(session)
    # Each session appears exactly once: all its requests ran back-to-back.
    assert len(seen_sessions) == len(set(seen_sessions))


def test_outcomes_come_back_in_submission_order(service, interleaved_stream):
    outcomes = service.answer_many(interleaved_stream)
    for request, outcome in zip(interleaved_stream, outcomes):
        expected, _ = service.resolve(request)
        assert outcome.original.key() == expected.key()


def test_fifo_scheduler_is_identity(interleaved_stream):
    assert FifoScheduler().order(interleaved_stream) == list(
        range(len(interleaved_stream))
    )


def test_answer_stream_is_lazy_and_ordered(service, interleaved_stream):
    stream = service.answer_stream(iter(interleaved_stream[:5]))
    served = list(stream)
    assert [request.request_id for request, _ in served] == [
        request.request_id for request in interleaved_stream[:5]
    ]


# ----------------------------------------------------------------------
# Reporting and plumbing
# ----------------------------------------------------------------------
def test_report_surfaces_cache_hit_rates(service, interleaved_stream):
    service.answer_many(interleaved_stream)
    service.answer_many(interleaved_stream)
    report = service.report()
    assert report["service"]["n_requests"] == 200
    assert 0.0 < report["engine_hit_rate"] <= 1.0
    assert report["decision_cache"]["hits"] >= 100
    breakdown = service.stats.session_breakdown()
    assert sum(breakdown.values()) == 200
    warm_outcomes = service.answer_many(interleaved_stream[:3])
    assert all(outcome.cache_hits > 0 for outcome in warm_outcomes)


@pytest.mark.parametrize("tau_ms", [0.0, -5.0, float("nan"), float("inf")])
def test_unusable_default_budgets_are_refused(serving_maliva, tau_ms):
    with pytest.raises(QueryError, match="time budget"):
        MalivaService(serving_maliva, default_tau_ms=tau_ms)
    with pytest.raises(TrainingError, match="time budget"):
        Maliva(
            serving_maliva.database,
            serving_maliva.space,
            serving_maliva.qte,
            tau_ms,
        )


def test_select_query_payloads_and_bad_payloads(service):
    from repro.db import RangePredicate

    direct = SelectQuery(
        table="tweets",
        predicates=(RangePredicate("created_at", 0.0, 1e12),),
        output=("id",),
    )
    query, tau_ms = service.resolve(VizRequest(payload=direct))
    assert query is direct and tau_ms == TEST_TAU_MS
    outcome = service.answer_one(VizRequest(payload=direct))
    assert outcome.original is direct
    with pytest.raises(QueryError):
        service.resolve(VizRequest(payload="not a query"))  # type: ignore[arg-type]


def test_service_without_translator_rejects_viz_payloads(
    serving_maliva, interleaved_stream
):
    bare = MalivaService(serving_maliva)
    with pytest.raises(QueryError):
        bare.answer_one(interleaved_stream[0])


def test_direct_database_invalidation_evicts_decisions_via_hook(
    service, interleaved_stream
):
    service.answer_many(interleaved_stream[:3])
    service.answer_many(interleaved_stream[:3])
    assert service.stats.records[-1].decision_cached
    # Bypass the service: mutate/invalidate through the database directly.
    service.maliva.database.invalidate_table("tweets")
    service.answer_many(interleaved_stream[:3])
    assert all(not record.decision_cached for record in service.stats.records[-3:])


def test_engine_cache_window_excludes_training_traffic(service, interleaved_stream):
    # Before any request the window is empty even though training warmed
    # the underlying engine caches heavily.
    window = service.engine_cache_window()
    assert window.hits == 0 and window.misses == 0
    service.answer_many(interleaved_stream[:5])
    served = service.engine_cache_window()
    assert served.hits + served.misses > 0
    service.reset_stats()
    fresh = service.engine_cache_window()
    assert fresh.hits == 0 and fresh.misses == 0


def test_invalidate_drops_decision_cache(service, interleaved_stream):
    service.answer_many(interleaved_stream[:5])
    service.answer_many(interleaved_stream[:5])
    assert service.decision_cache_stats.hits >= 5
    service.invalidate()
    assert service.decision_cache_stats.invalidations >= 5
    third = service.answer_many(interleaved_stream[:5])
    replanned = service.stats.records[-5:]
    assert all(not record.decision_cached for record in replanned)
    # Replanning after invalidation reproduces the same outcomes.
    assert [outcome.viable for outcome in third] == [
        record.viable for record in service.stats.records[:5]
    ]
