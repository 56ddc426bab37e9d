"""Lockstep batch planning: bit-identical to sequential Algorithm 2.

The tentpole invariant: planning many requests in lockstep — one q-network
forward pass per MDP depth, fused selectivity probes, vectorized sibling
re-pricing and termination — produces exactly the decisions and virtual
times of per-request planning.  These tests pin the invariant at every
layer: the row-stable network kernel, the stacked state matrices, batched
action selection, the fused probe pass, and the full ``rewrite_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Maliva, TrainingConfig
from repro.core.frontier import LockstepFrontier, state_size
from repro.core.qnetwork import QNetwork
from repro.core.replay import Transition
from repro.core.trainer import DQNTrainer
from repro.qte import AccurateQTE, SamplingQTE, SelectivityCache
from repro.workloads import TwitterWorkloadGenerator

from ..conftest import TEST_TAU_MS, build_trained_maliva
from ._reference import MDPState, ReferenceAgent, reference_plan


@pytest.fixture(scope="module")
def accurate_maliva(twitter_db, twitter_queries, hint_space) -> Maliva:
    return build_trained_maliva(
        twitter_db, hint_space, twitter_queries,
        qte="accurate", max_epochs=5, agent_seed=13, n_train=16,
    )


@pytest.fixture(scope="module")
def sampling_maliva(twitter_db, twitter_queries, hint_space) -> Maliva:
    return build_trained_maliva(
        twitter_db, hint_space, twitter_queries,
        qte="sampling", max_epochs=5, agent_seed=7, n_fit=6, n_train=16,
    )


# ----------------------------------------------------------------------
# Row-stable kernels
# ----------------------------------------------------------------------
def test_predict_rows_is_row_stable_across_batch_sizes():
    network = QNetwork(11, 5, seed=3)
    rng = np.random.default_rng(0)
    states = rng.standard_normal((64, 11)).astype(np.float32)
    full = network.predict_rows(states)
    for size in (1, 2, 3, 7, 33, 64):
        batch = network.predict_rows(states[:size])
        rows = np.stack([network.predict_rows(states[i]) [0] for i in range(size)])
        np.testing.assert_array_equal(batch, rows)
        np.testing.assert_array_equal(batch, full[:size])


def _frontier_holding(maliva: Maliva, query, states, tau_norm: float):
    """A frontier of ``len(states)`` copies of ``query`` whose rows hold the
    given reference states."""
    k = len(states)
    frontier = LockstepFrontier(
        space=maliva.space,
        qte=maliva.qte,
        queries=[query] * k,
        taus=[TEST_TAU_MS] * k,
        rewritten=[maliva.rewriter.candidate_queries(query)] * k,
        tau_norm=tau_norm,
    )
    for row, state in enumerate(states):
        frontier.elapsed[row] = state.elapsed_ms
        frontier.costs[row] = state.estimation_costs_ms
        frontier.times[row] = state.estimated_times_ms
        frontier.explored[row] = state.explored
    return frontier


def test_stack_vectors_rows_match_per_state_vectors(accurate_maliva, twitter_queries):
    """The frontier's stacked encoding equals the reference per-state
    ``vector()`` row by row."""
    rng = np.random.default_rng(1)
    states = []
    for _ in range(17):
        n = len(accurate_maliva.space)
        state = MDPState(
            elapsed_ms=float(rng.uniform(0, 500)),
            estimation_costs_ms=rng.uniform(0, 400, n),
            estimated_times_ms=rng.uniform(0, 900, n),
            explored=rng.random(n) < 0.4,
        )
        states.append(state)
    frontier = _frontier_holding(accurate_maliva, twitter_queries[0], states, 75.0)
    matrix = frontier.state_matrix(np.arange(len(states)))
    for row, state in zip(matrix, states):
        np.testing.assert_array_equal(row, state.vector(75.0))


def test_choose_batch_matches_best_action(accurate_maliva, twitter_queries):
    """One q-network pass + the frontier's masked argmax choose what the
    reference per-state ``best_action`` chooses."""
    agent = accurate_maliva.agent
    rng = np.random.default_rng(5)
    states = []
    for _ in range(25):
        n = len(agent.space)
        explored = rng.random(n) < 0.5
        if explored.all():
            explored[int(rng.integers(n))] = False
        states.append(
            MDPState(
                elapsed_ms=float(rng.uniform(0, 200)),
                estimation_costs_ms=rng.uniform(0, 100, n),
                estimated_times_ms=rng.uniform(0, 400, n),
                explored=explored,
            )
        )
    frontier = _frontier_holding(
        accurate_maliva, twitter_queries[0], states, agent.tau_ms
    )
    active = np.arange(len(states))
    batched = frontier.greedy_actions(
        active, agent.network.predict_rows(frontier.state_matrix(active))
    )
    reference = ReferenceAgent(agent.network, agent.space, agent.tau_ms)
    sequential = [reference.best_action(state, state.remaining()) for state in states]
    assert batched.tolist() == sequential


# ----------------------------------------------------------------------
# Fused probe collection
# ----------------------------------------------------------------------
def test_collect_batch_memoizes_identical_selectivities(
    twitter_db, twitter_queries, hint_space
):
    fused = SamplingQTE(twitter_db, hint_space.attributes, "tweets_qte_sample")
    sequential = SamplingQTE(twitter_db, hint_space.attributes, "tweets_qte_sample")
    probes = [
        predicate for query in twitter_queries[:12] for predicate in query.predicates
    ]
    fused.collect_batch(probes)
    for predicate in probes:
        expected = sequential._sample_selectivity(predicate)
        assert fused._sample_selectivity(predicate) == expected


def test_collect_batch_is_idempotent_and_skips_memo_hits(
    twitter_db, twitter_queries, hint_space
):
    qte = SamplingQTE(twitter_db, hint_space.attributes, "tweets_qte_sample")
    probes = list(twitter_queries[0].predicates)
    qte.collect_batch(probes)
    first = {p.key(): qte._sample_selectivity(p) for p in probes}
    qte.collect_batch(probes)  # every probe already memoized
    assert {p.key(): qte._sample_selectivity(p) for p in probes} == first


def test_predict_costs_matches_per_query_costs(
    twitter_db, twitter_queries, hint_space
):
    qte = AccurateQTE(twitter_db, unit_cost_ms=5.0, overhead_ms=1.0)
    cache = SelectivityCache()
    rewritten = hint_space.build_all(twitter_queries[0], twitter_db)
    assert qte.predict_costs(rewritten, cache) == [
        qte.predict_cost_ms(rq, cache) for rq in rewritten
    ]
    # A partially filled cache discounts exactly the collected attributes.
    cache.put(twitter_queries[0].predicates[0].column, 0.25)
    assert qte.predict_costs(rewritten, cache) == [
        qte.predict_cost_ms(rq, cache) for rq in rewritten
    ]


def test_estimate_samples_last_predicate_per_duplicated_column(
    twitter_db, twitter_queries, hint_space
):
    """Two predicates on one hinted column: the collected selectivity comes
    from the LAST predicate (the by-column-dict semantics shared by the
    prefetch paths), and the fused batch path agrees."""
    from dataclasses import replace

    from repro.db import RangePredicate
    from repro.qte import SelectivityCache

    base = next(
        q
        for q in twitter_queries
        if any(p.column == "created_at" for p in q.predicates)
    )
    narrow = RangePredicate("created_at", 0.0, 5e11)
    duplicated = replace(base, predicates=tuple(base.predicates) + (narrow,))
    qte = SamplingQTE(twitter_db, hint_space.attributes, "tweets_qte_sample")
    qte.fit(
        [hint_space.build(q, twitter_db, i) for q in twitter_queries[:4] for i in range(8)]
    )
    rewritten = hint_space.build_all(duplicated, twitter_db)
    hinted = next(
        rq
        for rq in rewritten
        if rq.hints is not None and "created_at" in rq.hints.index_on
    )
    cache = SelectivityCache()
    qte.estimate(hinted, cache)
    assert cache.get("created_at") == qte._sample_selectivity(narrow)
    # The fused prefetch memoizes the same (last) predicate the estimate reads.
    fused = SamplingQTE(twitter_db, hint_space.attributes, "tweets_qte_sample")
    fused._weights = qte._weights
    episode_probes = [
        {p.column: p for p in hinted.predicates}[a]
        for a in ("created_at",)
    ]
    fused.collect_batch(episode_probes)
    fused_cache = SelectivityCache()
    fused.estimate(hinted, fused_cache)
    assert fused_cache.get("created_at") == cache.get("created_at")


# ----------------------------------------------------------------------
# Full batched planning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maliva_fixture", ["accurate_maliva", "sampling_maliva"])
def test_rewrite_batch_bit_identical_to_sequential(
    maliva_fixture, twitter_queries, request
):
    """Lockstep planning decides what the frozen per-object greedy loop
    (``_reference.reference_plan``) decides for each request alone."""
    maliva = request.getfixturevalue(maliva_fixture)
    agent = ReferenceAgent(maliva.agent.network, maliva.space, maliva.tau_ms)
    queries = list(twitter_queries[:20])
    taus = [TEST_TAU_MS, 40.0, 90.0, None] * 5
    batched = maliva.rewrite_batch(queries, taus)
    for query, tau, decision in zip(queries, taus, batched):
        sequential, _ = reference_plan(
            agent, maliva.database, maliva.qte, query, tau_ms=tau
        )
        assert decision.option_index == sequential.option_index
        assert decision.option_label == sequential.option_label
        assert decision.planning_ms == sequential.planning_ms
        assert decision.reason == sequential.reason
        assert decision.n_explored == sequential.n_explored
        assert decision.rewritten.key() == sequential.rewritten.key()


def _count_forward_passes(monkeypatch, network: QNetwork) -> list[int]:
    """Wrap ``network.predict_rows``; one list entry per forward pass."""
    passes: list[int] = []
    real = network.predict_rows

    def counted(states):
        passes.append(1)
        return real(states)

    monkeypatch.setattr(network, "predict_rows", counted)
    return passes


def test_rewrite_batch_one_forward_pass_per_depth(
    accurate_maliva, twitter_queries, monkeypatch
):
    """Count guard: lockstep planning scores the whole frontier in one
    q-network pass per MDP depth; sequential planning pays one per step."""
    queries = list(twitter_queries[:12])
    passes = _count_forward_passes(monkeypatch, accurate_maliva.agent.network)
    batched = accurate_maliva.rewrite_batch(queries)
    batched_passes = len(passes)
    passes.clear()
    for query in queries:
        accurate_maliva.rewrite(query)
    assert len(passes) == sum(decision.n_explored for decision in batched)
    assert batched_passes == max(decision.n_explored for decision in batched)
    assert batched_passes < len(passes)


def test_rewrite_batch_scalar_tau_and_empty_batch(accurate_maliva, twitter_queries):
    assert accurate_maliva.rewrite_batch([]) == []
    batched = accurate_maliva.rewrite_batch(list(twitter_queries[:4]), 45.0)
    for query, decision in zip(twitter_queries[:4], batched):
        assert decision.planning_ms == accurate_maliva.rewrite(query, tau_ms=45.0).planning_ms


def test_rewrite_batch_rejects_mismatched_tau_list(accurate_maliva, twitter_queries):
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        accurate_maliva.rewrite_batch(list(twitter_queries[:3]), [60.0, 60.0])


def test_cost_structure_is_required():
    """Every estimator declares the unit-cost shape the frontier prices
    with: there is no per-request planning path for one that does not."""
    from repro.qte import QueryTimeEstimator

    class Opaque(QueryTimeEstimator):
        def predict_cost_ms(self, rewritten, cache):
            return 1.0

        def estimate(self, rewritten, cache):
            raise AssertionError("never reached")

    with pytest.raises(TypeError, match="cost_structure"):
        Opaque()


# ----------------------------------------------------------------------
# Trainer: vectorized Bellman targets and lockstep epochs
# ----------------------------------------------------------------------
def _reference_bellman(trainer: DQNTrainer, batch: list[Transition]) -> np.ndarray:
    next_states = np.stack([t.next_state for t in batch])
    next_q = trainer._target.predict(next_states)
    targets = np.empty(len(batch))
    for i, transition in enumerate(batch):
        if transition.terminal or not transition.next_mask.any():
            targets[i] = transition.reward
        else:
            best_next = float(np.max(next_q[i][transition.next_mask]))
            targets[i] = transition.reward + trainer.config.gamma * best_next
    return targets


@pytest.mark.parametrize("gamma", [1.0, 0.9, 0.0])
def test_bellman_targets_match_reference_loop(
    twitter_db, hint_space, gamma
):
    qte = AccurateQTE(twitter_db, unit_cost_ms=5.0, overhead_ms=1.0)
    trainer = DQNTrainer(
        twitter_db, qte, hint_space, TEST_TAU_MS,
        config=TrainingConfig(gamma=gamma, seed=3),
    )
    rng = np.random.default_rng(11)
    dim = state_size(len(hint_space))
    batch = []
    for i in range(40):
        mask = rng.random(len(hint_space)) < 0.5
        if i % 7 == 0:
            mask[:] = False
        batch.append(
            Transition(
                state=rng.standard_normal(dim).astype(np.float32),
                action=int(rng.integers(len(hint_space))),
                reward=float(rng.normal()),
                next_state=rng.standard_normal(dim).astype(np.float32),
                next_mask=mask,
                terminal=bool(i % 5 == 0),
            )
        )
    np.testing.assert_array_equal(
        trainer._bellman_targets(batch), _reference_bellman(trainer, batch)
    )


def test_lockstep_training_converges_to_usable_agent(twitter_db, hint_space):
    qte = AccurateQTE(twitter_db, unit_cost_ms=5.0, overhead_ms=1.0)
    queries = TwitterWorkloadGenerator(twitter_db, seed=33).generate(12)
    maliva = Maliva(
        twitter_db, hint_space, qte, TEST_TAU_MS,
        config=TrainingConfig(max_epochs=5, seed=13, lockstep=True),
    )
    history = maliva.train(list(queries))
    assert history.epochs_run >= 1
    assert len(history.epoch_rewards) == history.epochs_run
    # The lockstep-trained agent plans normally, batched and sequentially.
    batched = maliva.rewrite_batch(list(queries[:6]))
    for query, decision in zip(queries[:6], batched):
        sequential = maliva.rewrite(query)
        assert decision.option_index == sequential.option_index
        assert decision.planning_ms == sequential.planning_ms


def test_lockstep_greedy_epoch_matches_sequential_viability(twitter_db, hint_space):
    """At epsilon = 0 with learning off, lockstep waves and sequential
    episodes follow the identical greedy policy."""
    qte = AccurateQTE(twitter_db, unit_cost_ms=5.0, overhead_ms=1.0)
    queries = TwitterWorkloadGenerator(twitter_db, seed=41).generate(10)
    trainer = DQNTrainer(
        twitter_db, qte, hint_space, TEST_TAU_MS, config=TrainingConfig(seed=5)
    )
    sequential = [
        trainer.run_episode(query, epsilon=0.0, learn=False) for query in queries
    ]
    total, viable = trainer.run_episodes_lockstep(queries, epsilon=0.0, learn=False)
    assert viable == sum(int(v) for _, v in sequential)
    assert total == pytest.approx(sum(r for r, _ in sequential))


def test_lockstep_epoch_one_forward_pass_per_wave(twitter_db, hint_space, monkeypatch):
    """Count guard: a lockstep epoch scores each wave's frontier in one
    q-network pass; sequential episodes pay one pass per episode-step."""
    qte = AccurateQTE(twitter_db, unit_cost_ms=5.0, overhead_ms=1.0)
    queries = TwitterWorkloadGenerator(twitter_db, seed=41).generate(10)
    trainer = DQNTrainer(
        twitter_db, qte, hint_space, TEST_TAU_MS, config=TrainingConfig(seed=5)
    )
    passes = _count_forward_passes(monkeypatch, trainer.network)
    steps = []
    for query in queries:
        before = len(trainer.memory)
        trainer.run_episode(query, epsilon=0.0, learn=False)
        steps.append(len(trainer.memory) - before)
    assert len(passes) == sum(steps)
    passes.clear()
    trainer.run_episodes_lockstep(queries, epsilon=0.0, learn=False)
    # The greedy waves follow the sequential trajectories (pinned above),
    # so the epoch runs as many waves as its longest episode has steps.
    assert len(passes) == max(steps)
    assert len(passes) < sum(steps)
