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

Do not "modernize" this module: its value is that it does NOT change when
the production trainer does.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.agent import MalivaAgent
from repro.core.environment import RewriteEpisode
from repro.core.qnetwork import AdamParams
from repro.core.replay import Transition
from repro.core.reward import EfficiencyReward, EpisodeOutcome
from repro.core.state import MDPState
from repro.core.trainer import TrainingConfig, TrainingHistory


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
        # MalivaAgent only needs predict_rows/input_dim/n_actions — the
        # reference network is duck-type compatible.
        self.agent = MalivaAgent(self.network, space, tau_ms)
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

