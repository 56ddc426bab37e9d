"""Failure injection: the middleware must degrade gracefully, not crash.

The paper's challenge C2 is uncertainty — QTEs with large errors and a
database that may ignore hints.  These tests inject much harsher failures
than the experiments use and assert the MDP stack still produces decisions.
"""

import numpy as np
import pytest

from repro.core import Maliva, RewriteOptionSpace, TrainingConfig
from repro.db import Database, EngineProfile
from repro.qte import EstimationOutcome, QueryTimeEstimator
from repro.qte.base import required_attributes

from ..conftest import TEST_TAU_MS, TWITTER_ATTRS


class GarbageQTE(QueryTimeEstimator):
    """A QTE whose estimates are pure noise (worst-case estimation error)."""

    name = "garbage"

    def __init__(self, seed: int = 0, cost_ms: float = 5.0) -> None:
        self._rng = np.random.default_rng(seed)
        self.cost_ms = cost_ms

    def predict_cost_ms(self, rewritten, cache) -> float:
        return self.cost_ms

    def cost_structure(self):
        return (0.0, self.cost_ms)

    def estimate(self, rewritten, cache) -> EstimationOutcome:
        for attribute in required_attributes(rewritten):
            cache.put(attribute, float(self._rng.random()))
        return EstimationOutcome(
            estimated_ms=float(self._rng.uniform(0.1, 10_000.0)),
            cost_ms=self.cost_ms,
        )


class ConstantQTE(QueryTimeEstimator):
    """Every rewritten query 'costs the same' — zero information."""

    name = "constant"

    def predict_cost_ms(self, rewritten, cache) -> float:
        return 1.0

    def cost_structure(self):
        return (0.0, 1.0)

    def estimate(self, rewritten, cache) -> EstimationOutcome:
        return EstimationOutcome(estimated_ms=100.0, cost_ms=1.0)


@pytest.fixture(scope="module")
def space():
    return RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)


class TestGarbageQTE:
    def test_training_survives_noise(self, twitter_db, twitter_queries, space):
        maliva = Maliva(
            twitter_db,
            space,
            GarbageQTE(seed=3),
            TEST_TAU_MS,
            config=TrainingConfig(max_epochs=3, seed=4),
        )
        history = maliva.train(list(twitter_queries[:10]))
        assert history.epochs_run >= 1

    def test_answers_are_well_formed(self, twitter_db, twitter_queries, space):
        maliva = Maliva(
            twitter_db,
            space,
            GarbageQTE(seed=5),
            TEST_TAU_MS,
            config=TrainingConfig(max_epochs=2, seed=6),
        )
        maliva.train(list(twitter_queries[:8]))
        for query in twitter_queries[20:25]:
            outcome = maliva.answer(query)
            assert outcome.total_ms > 0.0
            assert outcome.reason in ("viable", "timeout", "exhausted")


class TestConstantQTE:
    def test_uninformative_estimates_still_terminate(
        self, twitter_db, twitter_queries, space
    ):
        maliva = Maliva(
            twitter_db,
            space,
            ConstantQTE(),
            TEST_TAU_MS,
            config=TrainingConfig(max_epochs=2, seed=7),
        )
        maliva.train(list(twitter_queries[:8]))
        outcome = maliva.answer(twitter_queries[21])
        # Constant 100ms estimates against tau=60ms can never look viable,
        # so the rewriter must exhaust (or time out) and still answer.
        assert outcome.reason in ("timeout", "exhausted")


class TestHostileEngine:
    def test_always_ignoring_hints(self, twitter_queries, space):
        """Hints never honoured: Maliva reduces to the optimizer's plans
        but must stay functional end to end."""
        from repro.datasets import TwitterConfig, build_twitter_tables

        tweets, users = build_twitter_tables(
            TwitterConfig(n_tweets=6_000, n_users=300, seed=9)
        )
        database = Database(
            profile=EngineProfile(
                name="hostile", hint_ignore_prob=1.0, noise_sigma=0.0
            )
        )
        database.add_table(tweets)
        database.add_table(users)
        for column in TWITTER_ATTRS:
            database.create_index("tweets", column)

        from repro.qte import AccurateQTE

        maliva = Maliva(
            database,
            space,
            AccurateQTE(database, unit_cost_ms=5.0),
            TEST_TAU_MS,
            config=TrainingConfig(max_epochs=2, seed=10),
        )
        maliva.train(list(twitter_queries[:8]))
        outcome = maliva.answer(twitter_queries[22])
        assert not outcome.result.obeyed_hints
        assert outcome.total_ms > 0.0

    def test_extreme_noise(self, twitter_queries, space):
        from repro.datasets import TwitterConfig, build_twitter_tables
        from repro.qte import AccurateQTE

        tweets, users = build_twitter_tables(
            TwitterConfig(n_tweets=6_000, n_users=300, seed=9)
        )
        database = Database(
            profile=EngineProfile(name="wild", noise_sigma=1.0), seed=11
        )
        database.add_table(tweets)
        database.add_table(users)
        for column in TWITTER_ATTRS:
            database.create_index("tweets", column)
        maliva = Maliva(
            database,
            space,
            AccurateQTE(database, unit_cost_ms=5.0),
            TEST_TAU_MS,
            config=TrainingConfig(max_epochs=2, seed=12),
        )
        history = maliva.train(list(twitter_queries[:8]))
        assert np.isfinite(history.epoch_rewards).all()
