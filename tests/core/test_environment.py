"""Environment tests: transitions and termination (paper Section 4.1).

These pin the behaviour of the frozen per-object episode in
``_reference.py``; ``test_frontier_reference.py`` pins the production
frontier to it step by step.
"""

import numpy as np
import pytest

from repro.core import RewriteOptionSpace
from repro.errors import TrainingError
from repro.qte import AccurateQTE

from ..conftest import TWITTER_ATTRS
from ._reference import RewriteEpisode


def make_episode(db, query, tau_ms=1e9, unit_cost_ms=40.0, overhead_ms=2.0):
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    qte = AccurateQTE(db, unit_cost_ms=unit_cost_ms, overhead_ms=overhead_ms)
    return RewriteEpisode(db, qte, space, query, tau_ms)


def option_index(space, attrs: set) -> int:
    return next(
        i for i, o in enumerate(space) if o.hint_set.index_on == frozenset(attrs)
    )


class TestInitialState:
    def test_initial_costs_from_qte(self, twitter_db, twitter_queries):
        episode = make_episode(twitter_db, twitter_queries[0])
        state = episode.state
        full_scan = option_index(episode.space, set())
        triple = option_index(episode.space, set(TWITTER_ATTRS))
        assert state.estimation_costs_ms[full_scan] == pytest.approx(2.0)
        assert state.estimation_costs_ms[triple] == pytest.approx(122.0)
        assert state.elapsed_ms == 0.0

    def test_invalid_tau_raises(self, twitter_db, twitter_queries):
        with pytest.raises(TrainingError):
            make_episode(twitter_db, twitter_queries[0], tau_ms=0.0)


class TestTransitions:
    def test_step_updates_elapsed_and_times(self, twitter_db, twitter_queries):
        episode = make_episode(twitter_db, twitter_queries[0])
        index = option_index(episode.space, {"created_at"})
        step = episode.step(index)
        assert episode.state.elapsed_ms == pytest.approx(42.0)
        assert episode.state.estimated_times_ms[index] == step.estimated_ms
        assert episode.state.explored[index]
        assert index not in episode.remaining()

    def test_sibling_costs_drop_after_shared_selectivity(
        self, twitter_db, twitter_queries
    ):
        """The Figure 7 effect: estimating RQ(created_at) cheapens
        RQ(created_at + text)."""
        episode = make_episode(twitter_db, twitter_queries[0])
        single = option_index(episode.space, {"created_at"})
        double = option_index(episode.space, {"created_at", "text"})
        before = episode.state.estimation_costs_ms[double]
        episode.step(single)
        after = episode.state.estimation_costs_ms[double]
        assert before == pytest.approx(82.0)
        assert after == pytest.approx(42.0)

    def test_double_exploration_raises(self, twitter_db, twitter_queries):
        episode = make_episode(twitter_db, twitter_queries[0])
        episode.step(0)
        with pytest.raises(TrainingError):
            episode.step(0)


class TestTermination:
    def test_viable_decision(self, twitter_db, twitter_queries):
        # Huge budget: the first estimate is always potentially viable.
        episode = make_episode(twitter_db, twitter_queries[0], tau_ms=1e9)
        step = episode.step(3)
        assert step.decision is not None
        assert step.decision.reason == "viable"
        assert step.decision.option_index == 3

    def test_timeout_decides_best_explored(self, twitter_db, twitter_queries):
        # Tiny budget: a single estimation exhausts it.
        episode = make_episode(
            twitter_db, twitter_queries[0], tau_ms=1.0, unit_cost_ms=40.0
        )
        first = option_index(episode.space, {"text"})
        step = episode.step(first)
        assert step.decision is not None
        assert step.decision.reason == "timeout"
        assert step.decision.option_index == first

    def test_exhausted_decides_minimum_estimate(self, twitter_db, twitter_queries):
        # Budget far above any plan time is impossible here, so force
        # exhaustion with a budget below every execution time but costs 0.
        query = twitter_queries[0]
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        times = [
            twitter_db.true_execution_time_ms(space.build(query, twitter_db, i))
            for i in range(len(space))
        ]
        tau = min(times) * 0.5  # nothing is viable
        episode = make_episode(
            twitter_db, query, tau_ms=tau, unit_cost_ms=0.0, overhead_ms=0.0
        )
        decision = None
        for index in range(len(space)):
            step = episode.step(index)
            decision = step.decision
            if decision is not None:
                break
        assert decision is not None
        assert decision.reason == "exhausted"
        assert decision.option_index == int(np.argmin(times))

    def test_episode_with_prewarmed_cache(self, twitter_db, twitter_queries):
        from repro.qte import SelectivityCache

        cache = SelectivityCache()
        for attribute in TWITTER_ATTRS:
            cache.put(attribute, 0.1)
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        qte = AccurateQTE(twitter_db, unit_cost_ms=40.0, overhead_ms=2.0)
        episode = RewriteEpisode(
            twitter_db,
            qte,
            space,
            twitter_queries[0],
            tau_ms=1e9,
            start_elapsed_ms=123.0,
            cache=cache,
        )
        # Every option's cost is overhead-only; elapsed carries over.
        assert np.allclose(episode.state.estimation_costs_ms, 2.0)
        assert episode.state.elapsed_ms == 123.0
