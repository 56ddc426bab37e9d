"""Training-determinism contract (DESIGN.md §7).

The tensorized training subsystem — ring-buffer replay, array-fed Bellman
targets, flat-buffer Adam, hoisted state encoding — must reproduce the
pre-tensorization trainer's sequential trajectories **bit for bit**: same
RNG draw order, same epoch rewards, same convergence epoch, same replay
contents, same final network weights.  The reference implementation is
pinned in ``tests/core/_reference.py`` (a faithful copy of the pre-PR
code), so any numeric drift in the production trainer fails here.

Lockstep wave mode has its own (weaker) contract: the matrix-frontier
implementation with batched terminal execution must match the pre-batching
per-object wave loop exactly, and fused multi-candidate training must give
every candidate its solo-lockstep trajectory.
"""

import numpy as np
import pytest

from repro.core import (
    DQNTrainer,
    EfficiencyReward,
    QualityAwareReward,
    TrainingConfig,
)
from repro.core.trainer import (
    _validation_vqp,
    _validation_vqp_batched,
    train_validated,
)
from repro.viz import JaccardQuality

from ..conftest import TEST_TAU_MS
from ._reference import ReferenceTrainer

SEEDS = (3, 7, 11)


def reward_functions(twitter_db):
    return {
        "efficiency": lambda: EfficiencyReward(),
        "quality": lambda: QualityAwareReward(twitter_db, JaccardQuality(), beta=0.5),
    }


def assert_histories_equal(left, right, context=""):
    assert left.epoch_rewards == right.epoch_rewards, context
    assert left.epoch_viable_fraction == right.epoch_viable_fraction, context
    assert left.epochs_run == right.epochs_run, context
    assert left.converged == right.converged, context


def assert_replay_equal(new_memory, reference_memory, context=""):
    new_transitions = new_memory.transitions()
    reference_transitions = reference_memory.transitions()
    assert len(new_transitions) == len(reference_transitions), context
    for left, right in zip(new_transitions, reference_transitions):
        assert np.array_equal(left.state, right.state), context
        assert left.action == right.action, context
        assert left.reward == right.reward, context
        assert np.array_equal(left.next_state, right.next_state), context
        assert np.array_equal(left.next_mask, right.next_mask), context
        assert left.terminal == right.terminal, context


def assert_weights_equal(new_network, reference_network, context=""):
    new_weights = new_network.get_weights()
    reference_weights = reference_network.get_weights()
    for key in new_weights:
        assert np.array_equal(new_weights[key], reference_weights[key]), (
            context,
            key,
        )


class TestSequentialBitIdentity:
    """Default-config trajectories are pinned against the reference."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reward_name", ["efficiency", "quality"])
    def test_trajectory_matches_reference(
        self, twitter_db, hint_space, fast_qte, twitter_queries, seed, reward_name
    ):
        config = TrainingConfig(max_epochs=3, seed=seed)
        build_reward = reward_functions(twitter_db)[reward_name]
        queries = list(twitter_queries[:10])

        new = DQNTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            reward=build_reward(), config=config,
        )
        reference = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            reward=build_reward(), config=config,
        )
        context = f"seed={seed} reward={reward_name}"
        assert_histories_equal(new.train(queries), reference.train(queries), context)
        assert_replay_equal(new.memory, reference.memory, context)
        assert_weights_equal(new.network, reference.network, context)

    def test_convergence_epoch_matches_reference(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        """A long-enough run exercises the convergence early-exit path."""
        config = TrainingConfig(max_epochs=12, min_epochs=2, seed=5)
        queries = list(twitter_queries[:8])
        new = DQNTrainer(twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config)
        reference = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config
        )
        new_history = new.train(queries)
        reference_history = reference.train(queries)
        assert_histories_equal(new_history, reference_history)


class TestLockstepWaveEquivalence:
    """Matrix-frontier waves with batched execution match the pre-batching
    per-object wave loop exactly (same trajectory, replay, weights)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lockstep_matches_reference_waves(
        self, twitter_db, hint_space, fast_qte, twitter_queries, seed
    ):
        config = TrainingConfig(max_epochs=3, seed=seed, lockstep=True)
        queries = list(twitter_queries[:10])
        new = DQNTrainer(twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config)
        reference = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config
        )
        context = f"seed={seed}"
        assert_histories_equal(new.train(queries), reference.train(queries), context)
        assert_replay_equal(new.memory, reference.memory, context)
        assert_weights_equal(new.network, reference.network, context)

    def test_lockstep_quality_reward_matches_reference(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        config = TrainingConfig(max_epochs=2, seed=7, lockstep=True)
        queries = list(twitter_queries[:8])
        reward = QualityAwareReward(twitter_db, JaccardQuality(), beta=0.5)
        new = DQNTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            reward=reward, config=config,
        )
        reference = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            reward=QualityAwareReward(twitter_db, JaccardQuality(), beta=0.5),
            config=config,
        )
        assert_histories_equal(new.train(queries), reference.train(queries))
        assert_replay_equal(new.memory, reference.memory)


class TestFrontierInputs:
    """What per-object episode factories used to customise is now two
    frontier inputs — the sibling-repricing switch and per-query start
    states — and both train exactly as the reference trainer does over
    reference episodes built the old way."""

    @pytest.mark.parametrize("lockstep", [False, True], ids=["seq", "wave"])
    def test_repricing_off_matches_reference(
        self, twitter_db, hint_space, fast_qte, twitter_queries, lockstep
    ):
        """The Figure 7 ablation (static C_i) matches reference episodes
        built with ``update_sibling_costs=False``, in both modes."""
        from ._reference import RewriteEpisode

        def factory(query):
            return RewriteEpisode(
                twitter_db,
                fast_qte,
                hint_space,
                query,
                TEST_TAU_MS,
                update_sibling_costs=False,
            )

        config = TrainingConfig(max_epochs=2, seed=9, lockstep=lockstep)
        queries = list(twitter_queries[:8])
        new = DQNTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            config=config, update_sibling_costs=False,
        )
        reference = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            config=config, episode_factory=factory,
        )
        assert_histories_equal(new.train(queries), reference.train(queries))
        assert_replay_equal(new.memory, reference.memory)
        assert_weights_equal(new.network, reference.network)

    def test_two_stage_matches_reference_from_start_states(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        """Stage two of the two-stage rewriter trains from the states stage
        one leaves behind exactly as reference episodes started from the
        reference planner's end states do."""
        from repro.core import TwoStageRewriter
        from repro.core.options import RewriteOptionSpace
        from repro.db import LimitRule
        from repro.qte import SelectivityCache

        from ..conftest import TWITTER_ATTRS
        from ._reference import ReferenceAgent, RewriteEpisode, reference_plan

        approx_space = RewriteOptionSpace.approximation_only(
            TWITTER_ATTRS, [(LimitRule(0.01),), (LimitRule(0.1),)]
        )
        config = TrainingConfig(max_epochs=3, seed=3)
        queries = list(twitter_queries[:15])
        two_stage = TwoStageRewriter(
            twitter_db, hint_space, approx_space, fast_qte, TEST_TAU_MS,
            config=config,
        )
        history = two_stage.train(queries)

        stage_one = ReferenceTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config
        )
        assert_histories_equal(history.stage_one, stage_one.train(queries))
        starts = {}
        for query in queries:
            decision, episode = reference_plan(
                stage_one.agent, twitter_db, fast_qte, query
            )
            if (
                decision.reason == "exhausted"
                and episode.state.elapsed_ms < TEST_TAU_MS
            ):
                starts[query.key()] = (
                    episode.state.elapsed_ms,
                    episode.cache.collected,
                )
        assert starts, "no query reached stage two: the pin would be vacuous"

        def factory(query):
            elapsed, collected = starts[query.key()]
            cache = SelectivityCache()
            for attribute, selectivity in collected.items():
                cache.put(attribute, selectivity)
            return RewriteEpisode(
                twitter_db, fast_qte, approx_space, query, TEST_TAU_MS,
                start_elapsed_ms=elapsed, cache=cache,
            )

        stage_two = ReferenceTrainer(
            twitter_db, fast_qte, approx_space, TEST_TAU_MS,
            reward=QualityAwareReward(twitter_db, JaccardQuality(), beta=0.5),
            config=config, episode_factory=factory,
        )
        stage_two_queries = [q for q in queries if q.key() in starts]
        assert_histories_equal(history.stage_two, stage_two.train(stage_two_queries))
        assert_weights_equal(two_stage._stage_two_trainer.network, stage_two.network)
        assert_replay_equal(two_stage._stage_two_trainer.memory, stage_two.memory)
        # Serving chains the same way: stage two plans from stage one's end.
        stage_two_agent = ReferenceAgent(
            stage_two.network, approx_space, TEST_TAU_MS
        )
        for query in stage_two_queries:
            elapsed, collected = starts[query.key()]
            cache = SelectivityCache()
            for attribute, selectivity in collected.items():
                cache.put(attribute, selectivity)
            expected, episode = reference_plan(
                stage_two_agent, twitter_db, fast_qte, query,
                start_elapsed_ms=elapsed, cache=cache,
            )
            outcome = two_stage.answer(query)
            assert outcome.option_label == expected.option_label
            assert outcome.reason == expected.reason
            assert outcome.planning_ms == episode.state.elapsed_ms


class TestFusedValidation:
    """Shared-work hold-out training: per-candidate trajectories equal the
    solo lockstep runs, and batched validation scores match sequential."""

    def test_batched_validation_vqp_equals_sequential(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        trainer = DQNTrainer(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            config=TrainingConfig(max_epochs=3, seed=4),
        )
        trainer.train(list(twitter_queries[:10]))
        validation = list(twitter_queries[10:22])
        assert _validation_vqp_batched(trainer, validation) == _validation_vqp(
            trainer, validation
        )

    def test_fused_candidates_match_solo_lockstep_trajectories(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        config = TrainingConfig(max_epochs=3, seed=6)
        train_queries = list(twitter_queries[:10])
        validation = list(twitter_queries[10:16])

        agent, history = train_validated(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            train_queries, validation, n_candidates=2, config=config,
        )
        # Each fused candidate must have the trajectory of its own solo
        # lockstep training run; the winner's history is one of those.
        solo_histories = []
        for candidate in range(2):
            solo_config = TrainingConfig(
                **{
                    **config.__dict__,
                    "seed": config.seed + candidate * 7_919,
                    "lockstep": True,
                }
            )
            solo = DQNTrainer(
                twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=solo_config
            )
            solo_histories.append(solo.train(list(train_queries)))
        assert any(
            history.epoch_rewards == solo.epoch_rewards for solo in solo_histories
        )

    def test_fused_picks_argmax_candidate(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        """The fused protocol keeps the candidate whose batched validation
        VQP is highest — replicating the selection on solo-trained twins
        must land on the same agent weights."""
        config = TrainingConfig(max_epochs=2, seed=8)
        train_queries = list(twitter_queries[:8])
        validation = list(twitter_queries[8:14])
        agent, _ = train_validated(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            train_queries, validation, n_candidates=2, config=config,
        )
        scores = []
        twins = []
        for candidate in range(2):
            solo_config = TrainingConfig(
                **{
                    **config.__dict__,
                    "seed": config.seed + candidate * 7_919,
                    "lockstep": True,
                }
            )
            solo = DQNTrainer(
                twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=solo_config
            )
            solo.train(list(train_queries))
            twins.append(solo)
            scores.append(_validation_vqp_batched(solo, validation))
        winner = twins[int(np.argmax(scores))]
        assert_weights_equal(agent.network, winner.network)

    def test_single_candidate_short_circuit_is_bit_identical(
        self, twitter_db, hint_space, fast_qte, twitter_queries
    ):
        """n_candidates=1 must stay the plain sequential train() — the
        default path Maliva.train() takes."""
        config = TrainingConfig(max_epochs=3, seed=2)
        queries = list(twitter_queries[:8])
        agent, history = train_validated(
            twitter_db, fast_qte, hint_space, TEST_TAU_MS,
            queries, list(twitter_queries[8:12]), n_candidates=1, config=config,
        )
        solo = DQNTrainer(twitter_db, fast_qte, hint_space, TEST_TAU_MS, config=config)
        solo_history = solo.train(list(queries))
        assert_histories_equal(history, solo_history)
        assert_weights_equal(agent.network, solo.network)
