"""Online rewriter tests: Algorithm 2 behaviour with a trained agent."""

import pytest

from repro.core import MDPQueryRewriter
from repro.errors import TrainingError

from ..conftest import TEST_TAU_MS


@pytest.fixture()
def rewriter(trained_maliva, twitter_db, fast_qte) -> MDPQueryRewriter:
    return MDPQueryRewriter(trained_maliva.agent, twitter_db, fast_qte)


class TestRewrite:
    def test_decision_structure(self, rewriter, twitter_queries):
        decision = rewriter.rewrite(twitter_queries[20])
        assert decision.reason in ("viable", "timeout", "exhausted")
        assert decision.planning_ms > 0.0
        assert 1 <= decision.n_explored <= 8
        assert decision.rewritten.hints is not None
        assert decision.option_label

    def test_viable_decision_projects_within_budget(self, rewriter, twitter_queries):
        for query in twitter_queries[20:28]:
            decision, episode = rewriter.plan(query)
            if decision.reason == "viable":
                projected = (
                    episode.state.elapsed_ms
                    + episode.state.estimated_times_ms[decision.option_index]
                )
                assert projected <= TEST_TAU_MS + 1e-9

    def test_exhausted_returns_minimum_estimate(self, rewriter, twitter_queries):
        for query in twitter_queries[20:30]:
            decision, episode = rewriter.plan(query)
            if decision.reason == "exhausted":
                explored_times = episode.state.estimated_times_ms[
                    episode.state.explored
                ]
                chosen = episode.state.estimated_times_ms[decision.option_index]
                assert chosen == pytest.approx(float(explored_times.min()))

    def test_candidate_memo_counts_replans(self, rewriter, twitter_queries):
        first = rewriter.candidate_queries(twitter_queries[20])
        assert rewriter.candidate_queries(twitter_queries[20]) is first
        stats = rewriter.build_cache_stats
        assert (stats.name, stats.hits, stats.misses) == ("rq_build", 1, 1)

    def test_plan_chaining_preserves_elapsed(self, rewriter, twitter_queries):
        decision, episode = rewriter.plan(
            twitter_queries[20], start_elapsed_ms=10.0
        )
        assert episode.state.elapsed_ms >= 10.0
        # Reported planning time excludes the inherited 10 ms.
        assert decision.planning_ms == pytest.approx(
            episode.state.elapsed_ms - 10.0
        )


class TestMiddlewareIntegration:
    def test_untrained_maliva_raises(self, twitter_db, hint_space, fast_qte):
        from repro.core import Maliva

        maliva = Maliva(twitter_db, hint_space, fast_qte, TEST_TAU_MS)
        with pytest.raises(TrainingError):
            maliva.rewrite(None)  # never reaches query use
        with pytest.raises(TrainingError):
            _ = maliva.agent

    def test_answer_outcome_fields(self, trained_maliva, twitter_queries):
        outcome = trained_maliva.answer(twitter_queries[25])
        assert outcome.total_ms == pytest.approx(
            outcome.planning_ms + outcome.execution_ms
        )
        assert outcome.viable == (outcome.total_ms <= TEST_TAU_MS)
        assert outcome.result is not None
        assert outcome.quality is None

    def test_answer_with_quality(self, trained_maliva, twitter_queries):
        from repro.viz import JaccardQuality

        outcome = trained_maliva.answer(
            twitter_queries[25], quality_fn=JaccardQuality()
        )
        # Hint-only rewrites are exact.
        assert outcome.quality == pytest.approx(1.0)

    def test_adopt_agent(self, trained_maliva, twitter_db, hint_space, fast_qte):
        from repro.core import Maliva

        other = Maliva(twitter_db, hint_space, fast_qte, TEST_TAU_MS)
        other.adopt_agent(trained_maliva.agent)
        assert other.is_trained
