"""Pinned pre-tensorization training stack — the determinism reference.

This module is a faithful copy of the trainer internals as they were
*before* the tensorized replay/Adam/wave subsystem: a deque-backed
:class:`ReferenceReplayMemory`, a :class:`ReferenceQNetwork` whose Adam
update loops over six per-layer parameter arrays, and a
:class:`ReferenceTrainer` whose ``_learn`` materializes ``Transition``
objects and re-stacks them per gradient step.  It exists so that
``tests/core/test_trainer_determinism.py`` can assert that the tensorized
trainer's default (sequential) trajectories are bit-identical — same RNG
draw order, same epoch rewards, same convergence epoch, same replay
contents, same final weights — and that lockstep waves match the
pre-batching wave loop.

It also holds the per-object form of the MDP itself, frozen as it was
before :class:`~repro.core.frontier.LockstepFrontier` became the only
kernel: :class:`MDPState` (the state ``(E, C, T)`` and its network
encoding), :class:`RewriteEpisode` (the Section 4.1 transition and the
Algorithm 1/2 termination rules), the agent's action selection
(:class:`ReferenceAgent`) and the greedy Algorithm 2 loop
(:func:`reference_plan`).  ``tests/core/test_frontier_reference.py`` pins
the frontier against them step by step.

Do not "modernize" this module: its value is that it does NOT change when
the production trainer does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.qnetwork import AdamParams
from repro.core.replay import Transition
from repro.core.reward import EfficiencyReward, EpisodeOutcome
from repro.core.rewriter import RewriteDecision
from repro.core.trainer import TrainingConfig, TrainingHistory
from repro.db import Database, SelectQuery
from repro.db.predicates import Predicate
from repro.errors import TrainingError
from repro.qte import QueryTimeEstimator, SelectivityCache, required_attributes


# ----------------------------------------------------------------------
# The per-object MDP: state, episode, action selection, greedy planning
# ----------------------------------------------------------------------
#: Estimated times are clipped at this many budgets in the network input,
#: so a catastrophically slow RQ does not saturate the features.
TIME_CLIP_BUDGETS = 5.0


@dataclass
class MDPState:
    """Mutable per-request MDP state (Figure 6 of the paper)."""

    elapsed_ms: float
    estimation_costs_ms: np.ndarray
    estimated_times_ms: np.ndarray
    explored: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.estimation_costs_ms = np.asarray(self.estimation_costs_ms, dtype=np.float64)
        self.estimated_times_ms = np.asarray(self.estimated_times_ms, dtype=np.float64)
        if self.explored is None:
            self.explored = np.zeros(len(self.estimation_costs_ms), dtype=bool)
        if len(self.estimation_costs_ms) != len(self.estimated_times_ms):
            raise ValueError("cost and time vectors must have equal length")
        if len(self.explored) != len(self.estimation_costs_ms):
            raise ValueError("explored mask length mismatch")

    @property
    def n_options(self) -> int:
        return len(self.estimation_costs_ms)

    def remaining(self) -> np.ndarray:
        """Indices of options not explored yet."""
        return (~self.explored).nonzero()[0]

    def explored_indices(self) -> np.ndarray:
        return self.explored.nonzero()[0]

    def copy(self) -> "MDPState":
        return MDPState(
            elapsed_ms=self.elapsed_ms,
            estimation_costs_ms=self.estimation_costs_ms.copy(),
            estimated_times_ms=self.estimated_times_ms.copy(),
            explored=self.explored.copy(),
        )

    def vector(self, tau_ms: float) -> np.ndarray:
        """Network input: ``[E, C_1..C_n, T_1..T_n] / tau``, clipped."""
        if tau_ms <= 0:
            raise ValueError("time budget must be positive")
        n = len(self.estimation_costs_ms)
        out = np.empty(1 + 2 * n, dtype=np.float64)
        out[0] = min(self.elapsed_ms / tau_ms, TIME_CLIP_BUDGETS)
        out[1 : 1 + n] = self.estimation_costs_ms
        out[1 + n :] = self.estimated_times_ms
        np.divide(out[1:], tau_ms, out=out[1:])
        np.clip(out[1:], 0.0, TIME_CLIP_BUDGETS, out=out[1:])
        return out.astype(np.float32)

    @staticmethod
    def vector_size(n_options: int) -> int:
        return 1 + 2 * n_options

    @staticmethod
    def stack_vectors(states: Sequence["MDPState"], tau_ms: float) -> np.ndarray:
        """Batched :meth:`vector`: one ``(len(states), vector_size)`` matrix.

        Row ``i`` is bit-identical to ``states[i].vector(tau_ms)`` — the
        same clip/divide operations run element-wise over stacked arrays —
        so the lockstep planner can feed a whole request frontier to the
        q-network in a single call.  All states must share one option count.
        """
        if tau_ms <= 0:
            raise ValueError("time budget must be positive")
        if not states:
            return np.empty((0, 0), dtype=np.float32)
        n = states[0].n_options
        out = np.empty((len(states), 1 + 2 * n), dtype=np.float64)
        elapsed = np.fromiter(
            (s.elapsed_ms for s in states), dtype=np.float64, count=len(states)
        )
        out[:, 0] = np.minimum(elapsed / tau_ms, TIME_CLIP_BUDGETS)
        np.clip(
            np.stack([s.estimation_costs_ms for s in states]) / tau_ms,
            0.0,
            TIME_CLIP_BUDGETS,
            out=out[:, 1 : 1 + n],
        )
        np.clip(
            np.stack([s.estimated_times_ms for s in states]) / tau_ms,
            0.0,
            TIME_CLIP_BUDGETS,
            out=out[:, 1 + n :],
        )
        return out.astype(np.float32)

    @staticmethod
    def initial(estimation_costs_ms: np.ndarray) -> "MDPState":
        """The paper's initial state ``(0, C_1..C_n, 0..0)``."""
        n = len(estimation_costs_ms)
        return MDPState(
            elapsed_ms=0.0,
            estimation_costs_ms=np.asarray(estimation_costs_ms, dtype=np.float64),
            estimated_times_ms=np.zeros(n, dtype=np.float64),
        )


@dataclass(frozen=True)
class Decision:
    """The episode's final choice of rewritten query."""

    option_index: int
    #: Why the episode ended: "viable", "timeout", or "exhausted".
    reason: str


@dataclass(frozen=True)
class StepResult:
    """Outcome of one environment step."""

    state: MDPState
    action: int
    estimated_ms: float
    actual_cost_ms: float
    decision: Decision | None


class RewriteEpisode:
    """Environment for one request: candidate RQs + shared selectivity cache."""

    def __init__(
        self,
        database: Database,
        qte: QueryTimeEstimator,
        space: RewriteOptionSpace,
        query: SelectQuery,
        tau_ms: float,
        start_elapsed_ms: float = 0.0,
        cache: SelectivityCache | None = None,
        update_sibling_costs: bool = True,
        rewritten_queries: list[SelectQuery] | None = None,
    ) -> None:
        if tau_ms <= 0:
            raise TrainingError("time budget must be positive")
        self.database = database
        self.qte = qte
        self.space = space
        self.query = query
        self.tau_ms = tau_ms
        #: Ablation switch: when False, the estimation costs C_j of
        #: unexplored options are NOT re-predicted after each step — the
        #: agent loses the paper's Figure 7 shared-selectivity signal.
        self.update_sibling_costs = update_sibling_costs
        self.cache = cache if cache is not None else SelectivityCache()
        # Callers holding a cross-request build memo (the rewriter) pass the
        # candidate RQs in; standalone episodes build their own.
        self.rewritten_queries = (
            rewritten_queries
            if rewritten_queries is not None
            else space.build_all(query, database)
        )
        costs = np.array(self.qte.predict_costs(self.rewritten_queries, self.cache))
        self.state = MDPState.initial(costs)
        self.state.elapsed_ms = start_elapsed_ms

    # ------------------------------------------------------------------
    @property
    def n_options(self) -> int:
        return len(self.rewritten_queries)

    def remaining(self) -> np.ndarray:
        return self.state.remaining()

    def probes_for(self, action: int) -> list[Predicate]:
        """Predicates whose selectivity estimating ``action`` would collect.

        The lockstep planner gathers these across a whole request frontier
        and hands them to :meth:`QueryTimeEstimator.collect_batch` so the
        underlying sample counts run as one fused pass; the subsequent
        :meth:`step` then finds every collection memoized.  Virtual costs
        are unchanged — the per-request cache is still empty, so the QTE
        charges the same C_i it would charge sequentially.
        """
        rewritten = self.rewritten_queries[action]
        missing = self.cache.missing(required_attributes(rewritten))
        if not missing:
            return []
        by_column = {p.column: p for p in rewritten.predicates}
        return [by_column[attribute] for attribute in missing]

    def step(self, action: int) -> StepResult:
        """Estimate option ``action`` and transition (paper's T function)."""
        state = self.state
        if state.explored[action]:
            raise TrainingError(f"option {action} was already explored")
        rewritten = self.rewritten_queries[action]
        outcome = self.qte.estimate(rewritten, self.cache)

        state.elapsed_ms += outcome.cost_ms
        state.estimated_times_ms[action] = outcome.estimated_ms
        state.explored[action] = True
        # Actual cost replaces the prediction for the explored option; the
        # richer cache re-prices every unexplored option.
        state.estimation_costs_ms[action] = outcome.cost_ms
        if self.update_sibling_costs:
            remaining = state.remaining()
            if len(remaining):
                state.estimation_costs_ms[remaining] = self.qte.predict_costs(
                    [self.rewritten_queries[index] for index in remaining], self.cache
                )

        decision = self._termination_decision(last_action=action)
        return StepResult(
            state=state,
            action=action,
            estimated_ms=outcome.estimated_ms,
            actual_cost_ms=outcome.cost_ms,
            decision=decision,
        )

    # ------------------------------------------------------------------
    def _termination_decision(self, last_action: int | None) -> Decision | None:
        state = self.state
        if last_action is not None:
            projected = state.elapsed_ms + state.estimated_times_ms[last_action]
            if projected <= self.tau_ms:
                return Decision(option_index=last_action, reason="viable")
        if state.elapsed_ms >= self.tau_ms:
            return Decision(option_index=self._best_explored(), reason="timeout")
        if not len(state.remaining()):
            return Decision(option_index=self._best_explored(), reason="exhausted")
        return None

    def _best_explored(self) -> int:
        """Fastest-estimated explored option (Algorithm 2 line 12)."""
        explored = self.state.explored_indices()
        if not len(explored):
            # Nothing was estimated (e.g. budget exhausted immediately):
            # fall back to the first option, which by convention is the
            # least aggressive rewrite in every factory-built space.
            return 0
        times = self.state.estimated_times_ms[explored]
        return int(explored[int(np.argmin(times))])

    def rewritten(self, option_index: int) -> SelectQuery:
        return self.rewritten_queries[option_index]


class ReferenceAgent:
    """The per-object action selection of the pre-frontier ``MalivaAgent``."""

    def __init__(self, network, space, tau_ms):
        self.network = network
        self.space = space
        self.tau_ms = tau_ms

    def q_values(self, state: MDPState) -> np.ndarray:
        return self.network.predict_rows(state.vector(self.tau_ms))[0]

    def best_action(
        self,
        state: MDPState,
        remaining: np.ndarray,
        vector: np.ndarray | None = None,
    ) -> int:
        """Highest-q unexplored option (Algorithm 2 line 5)."""
        if not len(remaining):
            raise TrainingError("no remaining options to choose from")
        q = (
            self.q_values(state)
            if vector is None
            else self.network.predict_rows(vector)[0]
        )
        return int(remaining[int(np.argmax(q[remaining]))])

    def epsilon_greedy_action(
        self,
        state: MDPState,
        remaining: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        vector: np.ndarray | None = None,
    ) -> int:
        """Exploration policy of Algorithm 1 (lines 10-15)."""
        if not len(remaining):
            raise TrainingError("no remaining options to choose from")
        if rng.random() < epsilon:
            return int(rng.choice(remaining))
        return self.best_action(state, remaining, vector=vector)


def reference_plan(
    agent: ReferenceAgent,
    database: Database,
    qte: QueryTimeEstimator,
    query: SelectQuery,
    tau_ms: float | None = None,
    start_elapsed_ms: float = 0.0,
    cache: SelectivityCache | None = None,
    update_sibling_costs: bool = True,
) -> tuple[RewriteDecision, RewriteEpisode]:
    """The pre-frontier greedy Algorithm 2 loop over one object episode."""
    episode = RewriteEpisode(
        database,
        qte,
        agent.space,
        query,
        agent.tau_ms if tau_ms is None else tau_ms,
        start_elapsed_ms=start_elapsed_ms,
        cache=cache,
        update_sibling_costs=update_sibling_costs,
    )
    n_explored = 0
    while True:
        action = agent.best_action(episode.state, episode.remaining())
        step = episode.step(action)
        n_explored += 1
        if step.decision is None:
            continue
        option_index = step.decision.option_index
        decision = RewriteDecision(
            rewritten=episode.rewritten(option_index),
            option_index=option_index,
            option_label=agent.space.option(option_index).label(),
            planning_ms=episode.state.elapsed_ms - start_elapsed_ms,
            reason=step.decision.reason,
            n_explored=n_explored,
        )
        return decision, episode


# ----------------------------------------------------------------------
# The pre-tensorization training stack
# ----------------------------------------------------------------------
class ReferenceQNetwork:
    """The pre-flat-buffer q-network: per-layer arrays, looped Adam."""

    def __init__(self, input_dim, n_actions, hidden_dims=None, seed=0, adam=None):
        if hidden_dims is None:
            hidden_dims = (input_dim, input_dim)
        self.input_dim = input_dim
        self.n_actions = n_actions
        self.hidden_dims = hidden_dims
        self.adam = adam or AdamParams()
        rng = np.random.default_rng(seed)
        dims = [input_dim, hidden_dims[0], hidden_dims[1], n_actions]
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self._biases.append(np.zeros(fan_out))
        self._m = [np.zeros_like(w) for w in self._weights + self._biases]
        self._v = [np.zeros_like(w) for w in self._weights + self._biases]
        self._t = 0

    def predict(self, states):
        q, _ = self._forward(np.atleast_2d(states).astype(np.float64))
        return q

    def q_values(self, state):
        return self.predict(state[None, :])[0]

    def predict_rows(self, states):
        x = np.atleast_2d(states).astype(np.float64)
        a1 = np.maximum(np.einsum("ij,jk->ik", x, self._weights[0]) + self._biases[0], 0.0)
        a2 = np.maximum(np.einsum("ij,jk->ik", a1, self._weights[1]) + self._biases[1], 0.0)
        return np.einsum("ij,jk->ik", a2, self._weights[2]) + self._biases[2]

    def _forward(self, x):
        z1 = x @ self._weights[0] + self._biases[0]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ self._weights[1] + self._biases[1]
        a2 = np.maximum(z2, 0.0)
        q = a2 @ self._weights[2] + self._biases[2]
        return q, (x, z1, a1, z2, a2)

    def train_batch(self, states, actions, targets):
        states = np.atleast_2d(states).astype(np.float64)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        batch = len(states)
        q, (x, z1, a1, z2, a2) = self._forward(states)

        selected = q[np.arange(batch), actions]
        errors = selected - targets
        loss = float(np.mean(errors**2))

        grad_q = np.zeros_like(q)
        grad_q[np.arange(batch), actions] = 2.0 * errors / batch

        grad_w3 = a2.T @ grad_q
        grad_b3 = grad_q.sum(axis=0)
        grad_a2 = grad_q @ self._weights[2].T
        grad_z2 = grad_a2 * (z2 > 0)
        grad_w2 = a1.T @ grad_z2
        grad_b2 = grad_z2.sum(axis=0)
        grad_a1 = grad_z2 @ self._weights[1].T
        grad_z1 = grad_a1 * (z1 > 0)
        grad_w1 = x.T @ grad_z1
        grad_b1 = grad_z1.sum(axis=0)

        grads = [grad_w1, grad_w2, grad_w3, grad_b1, grad_b2, grad_b3]
        params = self._weights + self._biases
        self._t += 1
        adam = self.adam
        for i, (param, grad) in enumerate(zip(params, grads)):
            self._m[i] = adam.beta1 * self._m[i] + (1 - adam.beta1) * grad
            self._v[i] = adam.beta2 * self._v[i] + (1 - adam.beta2) * grad**2
            m_hat = self._m[i] / (1 - adam.beta1**self._t)
            v_hat = self._v[i] / (1 - adam.beta2**self._t)
            param -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)
        return loss

    def get_weights(self):
        state = {}
        for i, weight in enumerate(self._weights):
            state[f"w{i}"] = weight.copy()
        for i, bias in enumerate(self._biases):
            state[f"b{i}"] = bias.copy()
        return state

    def set_weights(self, state):
        for i in range(len(self._weights)):
            self._weights[i] = state[f"w{i}"].copy()
            self._biases[i] = state[f"b{i}"].copy()

    def clone(self):
        twin = ReferenceQNetwork(
            self.input_dim, self.n_actions, self.hidden_dims, seed=0, adam=self.adam
        )
        twin.set_weights(self.get_weights())
        return twin


class ReferenceReplayMemory:
    """The pre-ring-buffer memory: a deque of Transition objects."""

    def __init__(self, capacity=2_000):
        self.capacity = capacity
        self._buffer: deque[Transition] = deque(maxlen=capacity)

    def push(self, transition: Transition) -> None:
        self._buffer.append(transition)

    def sample(self, batch_size, rng):
        size = min(batch_size, len(self._buffer))
        indices = rng.choice(len(self._buffer), size=size, replace=False)
        return [self._buffer[i] for i in indices]

    def transitions(self):
        return list(self._buffer)

    def __len__(self):
        return len(self._buffer)


class ReferenceTrainer:
    """The pre-tensorization DQNTrainer, verbatim per-object hot path."""

    def __init__(
        self,
        database,
        qte,
        space,
        tau_ms,
        reward=None,
        config: TrainingConfig | None = None,
        episode_factory: Callable | None = None,
    ):
        self.database = database
        self.qte = qte
        self.space = space
        self.tau_ms = tau_ms
        self.reward = reward or EfficiencyReward()
        self.config = config or TrainingConfig()
        self._episode_factory = episode_factory or self._default_episode
        self._rng = np.random.default_rng(self.config.seed)

        input_dim = MDPState.vector_size(len(space))
        self.network = ReferenceQNetwork(
            input_dim,
            len(space),
            seed=self.config.seed,
            adam=AdamParams(lr=self.config.learning_rate),
        )
        self._target = self.network.clone()
        self.memory = ReferenceReplayMemory(self.config.replay_capacity)
        self.agent = ReferenceAgent(self.network, space, tau_ms)
        self._episodes_since_sync = 0

    def _default_episode(self, query):
        return RewriteEpisode(self.database, self.qte, self.space, query, self.tau_ms)

    def train(self, workload) -> TrainingHistory:
        config = self.config
        history = TrainingHistory()
        queries = list(workload)
        stall_epochs = 0
        previous_reward = None

        for epoch in range(config.max_epochs):
            epsilon = self._epsilon_at(epoch)
            self._rng.shuffle(queries)
            if config.lockstep:
                total_reward, viable = self.run_episodes_lockstep(queries, epsilon)
            else:
                total_reward = 0.0
                viable = 0
                for query in queries:
                    episode_reward, episode_viable = self.run_episode(query, epsilon)
                    total_reward += episode_reward
                    viable += int(episode_viable)
            history.epoch_rewards.append(total_reward)
            history.epoch_viable_fraction.append(viable / len(queries))
            history.epochs_run = epoch + 1

            if previous_reward is not None:
                improvement = total_reward - previous_reward
                threshold = config.convergence_tol * max(1.0, abs(previous_reward))
                if improvement < threshold:
                    stall_epochs += 1
                else:
                    stall_epochs = 0
                if (
                    epoch + 1 >= config.min_epochs
                    and stall_epochs >= config.convergence_patience
                ):
                    history.converged = True
                    break
            previous_reward = total_reward
        history.training_seconds = 1e-9  # wall time is not part of the contract
        return history

    def run_episode(self, query, epsilon, learn=True):
        episode = self._episode_factory(query)
        final_reward = 0.0
        viable = False
        while True:
            remaining = episode.remaining()
            state_vec = episode.state.vector(self.tau_ms)
            action = self.agent.epsilon_greedy_action(
                episode.state, remaining, epsilon, self._rng
            )
            step = episode.step(action)
            next_vec = episode.state.vector(self.tau_ms)
            next_mask = ~episode.state.explored.copy()

            if step.decision is None:
                self.memory.push(
                    Transition(
                        state=state_vec,
                        action=action,
                        reward=self.reward.intermediate_reward(),
                        next_state=next_vec,
                        next_mask=next_mask,
                        terminal=False,
                    )
                )
                continue

            rewritten = episode.rewritten(step.decision.option_index)
            result = self.database.execute(rewritten)
            outcome = EpisodeOutcome(
                tau_ms=self.tau_ms,
                elapsed_ms=episode.state.elapsed_ms,
                execution_ms=result.execution_ms,
                original_query=query,
                rewritten_query=rewritten,
                rewritten_result=result,
            )
            final_reward = self.reward.final_reward(outcome)
            viable = outcome.viable
            self.memory.push(
                Transition(
                    state=state_vec,
                    action=action,
                    reward=final_reward,
                    next_state=next_vec,
                    next_mask=next_mask,
                    terminal=True,
                )
            )
            break

        if learn:
            self._learn()
        return final_reward, viable

    def run_episodes_lockstep(self, queries, epsilon, learn=True):
        """The pre-batched-execution wave loop: per-episode steps and
        per-terminal ``Database.execute`` calls, interleaved."""
        episodes = [self._episode_factory(query) for query in queries]
        total_reward = 0.0
        viable_count = 0
        active = list(range(len(episodes)))
        while active:
            states = [episodes[i].state for i in active]
            matrix = MDPState.stack_vectors(states, self.tau_ms)
            remainings = [episodes[i].remaining() for i in active]
            q = self.network.predict_rows(matrix)
            greedy = [
                int(remaining[int(np.argmax(row[remaining]))])
                for row, remaining in zip(q, remainings)
            ]
            actions = []
            for position, index in enumerate(active):
                if self._rng.random() < epsilon:
                    actions.append(int(self._rng.choice(remainings[position])))
                else:
                    actions.append(greedy[position])
            probes = [
                probe
                for index, action in zip(active, actions)
                for probe in episodes[index].probes_for(action)
            ]
            self.qte.collect_batch(probes)

            still_active = []
            for position, (index, action) in enumerate(zip(active, actions)):
                episode = episodes[index]
                state_vec = matrix[position].copy()
                step = episode.step(action)
                next_vec = episode.state.vector(self.tau_ms)
                next_mask = ~episode.state.explored.copy()
                if step.decision is None:
                    self.memory.push(
                        Transition(
                            state=state_vec,
                            action=action,
                            reward=self.reward.intermediate_reward(),
                            next_state=next_vec,
                            next_mask=next_mask,
                            terminal=False,
                        )
                    )
                    still_active.append(index)
                    continue
                rewritten = episode.rewritten(step.decision.option_index)
                result = self.database.execute(rewritten)
                outcome = EpisodeOutcome(
                    tau_ms=self.tau_ms,
                    elapsed_ms=episode.state.elapsed_ms,
                    execution_ms=result.execution_ms,
                    original_query=queries[index],
                    rewritten_query=rewritten,
                    rewritten_result=result,
                )
                final_reward = self.reward.final_reward(outcome)
                total_reward += final_reward
                viable_count += int(outcome.viable)
                self.memory.push(
                    Transition(
                        state=state_vec,
                        action=action,
                        reward=final_reward,
                        next_state=next_vec,
                        next_mask=next_mask,
                        terminal=True,
                    )
                )
                if learn:
                    self._learn()
            active = still_active
        return total_reward, viable_count

    def _learn(self):
        config = self.config
        if len(self.memory) < config.batch_size:
            return
        for _ in range(config.updates_per_episode):
            batch = self.memory.sample(config.batch_size, self._rng)
            states = np.stack([t.state for t in batch])
            actions = np.array([t.action for t in batch])
            targets = self._bellman_targets(batch)
            self.network.train_batch(states, actions, targets)
        self._episodes_since_sync += 1
        if self._episodes_since_sync >= config.target_sync_episodes:
            self._target.set_weights(self.network.get_weights())
            self._episodes_since_sync = 0

    def _bellman_targets(self, batch):
        next_states = np.stack([t.next_state for t in batch])
        next_q = self._target.predict(next_states)
        rewards = np.fromiter(
            (t.reward for t in batch), dtype=np.float64, count=len(batch)
        )
        masks = np.stack([t.next_mask for t in batch])
        terminal = np.fromiter(
            (t.terminal for t in batch), dtype=bool, count=len(batch)
        )
        has_next = masks.any(axis=1) & ~terminal
        masked_max = np.where(masks, next_q, -np.inf).max(axis=1)
        best_next = np.where(has_next, masked_max, 0.0)
        return np.where(has_next, rewards + self.config.gamma * best_next, rewards)

    def _epsilon_at(self, epoch):
        config = self.config
        if config.epsilon_decay_epochs <= 0:
            return config.epsilon_end
        fraction = min(1.0, epoch / config.epsilon_decay_epochs)
        return config.epsilon_start + fraction * (
            config.epsilon_end - config.epsilon_start
        )

