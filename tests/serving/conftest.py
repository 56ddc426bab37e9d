"""Fixtures for the serving-layer tests: a trained middleware.

The exploration-session workload (``session_steps`` / ``make_workload``)
and the middleware builder live in the top-level ``tests/conftest.py`` so
the core, serving, and benchmark suites share one implementation.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Maliva
from repro.serving import DispatchExecute, ExecuteStage, ScatterExecute

from ..conftest import build_trained_maliva


class SequentialExecute(ExecuteStage):
    """The reference the batched local stage is pinned against: one
    ``Maliva.finish`` per request, in scheduled order."""

    def run(self, planned):
        outcomes = [None] * len(planned.order)
        for index in planned.order:
            query, tau_ms = planned.resolved[index]
            outcomes[index] = self.service.maliva.finish(
                query, planned.decisions[index], tau_ms, self.service.quality_fn
            )
        return outcomes


@pytest.fixture(autouse=True)
def _chaos_faults(monkeypatch):
    """Chaos pass: with ``REPRO_CHAOS_SEED`` set, every fleet stage built
    by these suites — directly or through ``build_service`` — gets a seeded
    random fault plan unless the test supplied its own: crashes and garbled
    replies on execute ops for shard workers, on serve ops for router
    replicas (exercising journal replay).

    The equivalence assertions must keep passing — recovery is supposed to
    be invisible in outcomes — while strict routing-counter assertions are
    guarded behind the ``CHAOS`` flag in the test modules.  Failures
    reproduce under the same seed.
    """
    seed = os.environ.get("REPRO_CHAOS_SEED")
    if seed is None:
        yield
        return
    from repro.serving.faults import FaultPlan

    def patch(stage, **plan_kwargs):
        original = stage.__init__

        def chaotic_init(self, **kwargs):
            if kwargs.get("fault_plan") is None:
                kwargs["fault_plan"] = FaultPlan.random(
                    int(seed), rate=0.05, **plan_kwargs
                )
                kwargs.setdefault("respawn_backoff_s", 0.0)
            original(self, **kwargs)

        monkeypatch.setattr(stage, "__init__", chaotic_init)

    patch(ScatterExecute)
    patch(DispatchExecute, ops=("serve",))
    yield


@pytest.fixture(scope="session")
def serving_maliva(twitter_db, twitter_queries, hint_space) -> Maliva:
    return build_trained_maliva(
        twitter_db,
        hint_space,
        twitter_queries,
        qte="accurate",
        max_epochs=6,
        agent_seed=13,
        n_train=20,
    )
