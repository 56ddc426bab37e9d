"""Fixtures for the serving-layer tests: a trained middleware.

The exploration-session workload (``session_steps`` / ``make_workload``)
and the middleware builder live in the top-level ``tests/conftest.py`` so
the core, serving, and benchmark suites share one implementation.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Maliva

from ..conftest import build_trained_maliva


@pytest.fixture(autouse=True)
def _chaos_faults(monkeypatch):
    """Chaos pass: with ``REPRO_CHAOS_SEED`` set, every sharded service
    built by these suites gets a seeded random fault plan (crashes and
    garbled replies on execute ops) unless the test supplied its own.

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
    from repro.serving.replicated import ReplicatedMalivaService
    from repro.serving.sharded import ShardedMalivaService

    original = ShardedMalivaService.__init__

    def chaotic_init(self, maliva, **kwargs):
        if kwargs.get("fault_plan") is None:
            kwargs["fault_plan"] = FaultPlan.random(int(seed), rate=0.05)
            kwargs.setdefault("respawn_backoff_s", 0.0)
        original(self, maliva, **kwargs)

    monkeypatch.setattr(ShardedMalivaService, "__init__", chaotic_init)

    # The replicated router tier gets its own plan, aimed at router ops:
    # crashes and garbled replies on serve/gossip exercise journal replay
    # and gossip re-broadcast under every equivalence assertion.
    replicated_original = ReplicatedMalivaService.__init__

    def chaotic_replicated_init(self, maliva, **kwargs):
        if kwargs.get("fault_plan") is None:
            kwargs["fault_plan"] = FaultPlan.random(
                int(seed), rate=0.05, ops=("serve", "gossip")
            )
            kwargs.setdefault("respawn_backoff_s", 0.0)
        replicated_original(self, maliva, **kwargs)

    monkeypatch.setattr(
        ReplicatedMalivaService, "__init__", chaotic_replicated_init
    )
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
