"""Training the MDP agent offline — the paper's Algorithm 1.

The trainer runs episodes over the training workload in shuffled epochs.
Each episode follows the epsilon-greedy policy over *unexplored* options,
stores experiences in the FIFO replay memory, and updates the q-network by
replaying random batches against a periodically synchronized target network
(the Bellman targets of Watkins' q-learning).  Training stops when the total
accumulated reward of an epoch stops improving by more than ~1% (the paper's
convergence criterion) or when ``max_epochs`` is reached.

Episodes step on the one MDP kernel,
:class:`~repro.core.frontier.LockstepFrontier`.  A sequential episode
(:meth:`DQNTrainer.run_episode`, the default ``lockstep=False`` mode) is a
one-query frontier; ``TrainingConfig(lockstep=True)`` is the throughput
mode, where an epoch's episodes advance together in waves — one row-stable
q-network pass per MDP depth for the whole epoch, one fused
selectivity-collection pass per wave, and each wave's terminal queries
executed through the batch executor
(:meth:`~repro.db.database.Database.execute_batch`, bit-identical per-query
results).  Step semantics are the same in both modes; only the
exploration-RNG consumption order and the placement of gradient updates
differ, so the two training *trajectories* legitimately differ.  What an
episode starts from is a frontier input too: per-query start states (stage
two of the two-stage rewriter) and the sibling-repricing switch (the
Figure 7 ablation).

The learning hot path is tensorized end to end: the replay memory is a
preallocated ring buffer sampled as stacked arrays
(:meth:`~repro.core.replay.ReplayMemory.sample_arrays`), Bellman targets are
computed over those arrays directly, and the q-network applies one
vectorized flat-buffer Adam step per update.  Sequential trajectories are
**bit-identical** to the pre-tensor per-object implementation — same RNG
draw order, same epoch rewards, same convergence epoch, same replay
contents, same weights — the contract
``tests/core/test_trainer_determinism.py`` pins against a frozen reference
trainer (see DESIGN.md §7).

``train_validated`` implements the paper's hold-out validation protocol:
train several candidate agents and keep the one with the best viable-query
percentage on the validation workload.  With several candidates it defaults
to **fused** shared-work training: one database/QTE/option-space build,
candidates advancing wave-synchronized so their selectivity probes pool
into single ``collect_batch`` sweeps, and validation scored through the
staged serving pipeline (``MalivaService.answer_many``) instead of
per-query episodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Generator, Mapping, Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..errors import TrainingError
from ..qte import QueryTimeEstimator
from .agent import MalivaAgent
from .frontier import LockstepFrontier, StartState, state_size
from .options import RewriteOptionSpace
from .qnetwork import AdamParams, QNetwork
from .replay import ReplayMemory, Transition
from .reward import EfficiencyReward, EpisodeOutcome, RewardFunction


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for Algorithm 1."""

    max_epochs: int = 30
    min_epochs: int = 4
    batch_size: int = 32
    replay_capacity: int = 4_000
    gamma: float = 1.0
    learning_rate: float = 1e-3
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    #: Epochs over which epsilon decays linearly from start to end.
    epsilon_decay_epochs: int = 10
    #: Episodes between target-network synchronizations.
    target_sync_episodes: int = 25
    #: Gradient updates performed after each episode (Algorithm 1 line 21).
    updates_per_episode: int = 4
    #: Relative epoch-reward improvement below which we count convergence.
    convergence_tol: float = 0.01
    convergence_patience: int = 3
    seed: int = 0
    #: Run each epoch's episodes in lockstep waves (one q-network forward
    #: pass per MDP depth for the whole epoch, fused selectivity probes,
    #: batched terminal execution).  Episode semantics per step are
    #: unchanged, but the exploration RNG is consumed in wave order and
    #: gradient updates land at wave boundaries, so the training
    #: *trajectory* differs from sequential episodes.
    lockstep: bool = False


@dataclass
class TrainingHistory:
    """Per-epoch learning diagnostics (feeds Figure 21)."""

    epoch_rewards: list[float] = field(default_factory=list)
    epoch_viable_fraction: list[float] = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False
    training_seconds: float = 0.0


class _ConvergenceTracker:
    """Algorithm 1's stopping rule, factored out so the fused multi-
    candidate trainer applies exactly the epoch bookkeeping of
    :meth:`DQNTrainer.train`."""

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config
        self.stall_epochs = 0
        self.previous_reward: float | None = None

    def converged(self, epochs_run: int, total_reward: float) -> bool:
        """Record one epoch's reward; True when training should stop."""
        config = self.config
        if self.previous_reward is not None:
            improvement = total_reward - self.previous_reward
            threshold = config.convergence_tol * max(1.0, abs(self.previous_reward))
            if improvement < threshold:
                self.stall_epochs += 1
            else:
                self.stall_epochs = 0
            if (
                epochs_run >= config.min_epochs
                and self.stall_epochs >= config.convergence_patience
            ):
                return True
        self.previous_reward = total_reward
        return False


class DQNTrainer:
    """Trains one MDP agent on a workload (Algorithm 1)."""

    def __init__(
        self,
        database: Database,
        qte: QueryTimeEstimator,
        space: RewriteOptionSpace,
        tau_ms: float,
        reward: RewardFunction | None = None,
        config: TrainingConfig | None = None,
        starts: Mapping[tuple, StartState] | None = None,
        update_sibling_costs: bool = True,
    ) -> None:
        if not (math.isfinite(tau_ms) and tau_ms > 0):
            raise TrainingError(
                f"time budget must be positive and finite, got {tau_ms}"
            )
        self.database = database
        self.qte = qte
        self.space = space
        self.tau_ms = tau_ms
        self.reward = reward or EfficiencyReward()
        self.config = config or TrainingConfig()
        #: Per-query start states keyed by ``query.key()`` (stage two of
        #: the two-stage rewriter); None starts every episode fresh.
        self.starts = starts
        #: The frontier's sibling-repricing switch (the Figure 7 ablation).
        self.update_sibling_costs = update_sibling_costs
        self._rng = np.random.default_rng(self.config.seed)

        input_dim = state_size(len(space))
        self.network = QNetwork(
            input_dim,
            len(space),
            seed=self.config.seed,
            adam=AdamParams(lr=self.config.learning_rate),
        )
        self._target = self.network.clone()
        self.memory = ReplayMemory(self.config.replay_capacity)
        self.agent = MalivaAgent(self.network, space, tau_ms)
        self._episodes_since_sync = 0
        # Candidate-RQ memo for the frontier (build_all is deterministic,
        # so caching it across epochs changes nothing).
        self._rq_memo: dict[object, list[SelectQuery]] = {}
        database.add_invalidation_hook(self._on_table_invalidated)

    def _on_table_invalidated(self, table_name: str) -> None:
        self._rq_memo.clear()

    def _candidates(self, query: SelectQuery) -> list[SelectQuery]:
        key = query.key()
        cached = self._rq_memo.get(key)
        if cached is None:
            cached = self.space.build_all(query, self.database)
            self._rq_memo[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def train(self, workload: Sequence[SelectQuery]) -> TrainingHistory:
        """Run Algorithm 1 over ``workload``; returns learning diagnostics."""
        if not workload:
            raise TrainingError("cannot train on an empty workload")
        config = self.config
        history = TrainingHistory()
        start = time.perf_counter()
        queries = list(workload)
        tracker = _ConvergenceTracker(config)

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

            if tracker.converged(epoch + 1, total_reward):
                history.converged = True
                break

        history.training_seconds = time.perf_counter() - start
        return history

    def run_episode(
        self, query: SelectQuery, epsilon: float, learn: bool = True
    ) -> tuple[float, bool]:
        """One training episode — a one-query lockstep frontier; returns
        (final reward, viability).

        Per step it draws one ``random()`` and, when exploring, one
        ``choice``, then learns once after the terminal step: the draw
        order of a per-object episode loop, so sequential training replays
        it bit for bit.
        """
        total_reward, viable = self.run_episodes_lockstep([query], epsilon, learn)
        return total_reward, bool(viable)

    def run_episodes_lockstep(
        self, queries: Sequence[SelectQuery], epsilon: float, learn: bool = True
    ) -> tuple[float, int]:
        """Run many episodes in lockstep waves; returns (reward sum, #viable).

        Per wave: one row-stable q-network pass scores the whole frontier,
        epsilon-greedy exploration draws one random number per active
        episode in frontier order, the frontier's uncollected selectivity
        probes run as one fused :meth:`collect_batch` pass, and the wave's
        terminal queries execute together through
        :meth:`Database.execute_batch` (bit-identical per-query results).
        Step semantics (transitions, rewards, replay pushes, one
        :meth:`_learn` per finished episode) are exactly those of
        :meth:`run_episode`; only the RNG consumption order and the
        placement of gradient updates differ.
        """
        waves = self._lockstep_waves(list(queries), epsilon, learn)
        while True:
            try:
                probes = next(waves)
            except StopIteration as stop:
                return stop.value
            if probes:
                self.qte.collect_batch(probes)

    # ------------------------------------------------------------------
    # Lockstep wave internals
    # ------------------------------------------------------------------
    def _lockstep_waves(
        self, queries: list[SelectQuery], epsilon: float, learn: bool
    ) -> Generator[list, None, tuple[float, int]]:
        """Generator form of one lockstep epoch: yields each wave's pooled
        selectivity probes *before* estimating, so the driver — the solo
        :meth:`run_episodes_lockstep` loop or the fused multi-candidate
        trainer — decides how widely to fuse the collection pass.
        """
        frontier = LockstepFrontier(
            space=self.space,
            qte=self.qte,
            queries=queries,
            taus=[self.tau_ms] * len(queries),
            rewritten=[self._candidates(query) for query in queries],
            tau_norm=self.tau_ms,
            starts=(
                None
                if self.starts is None
                else [self.starts[query.key()] for query in queries]
            ),
            update_sibling_costs=self.update_sibling_costs,
        )
        total_reward = 0.0
        viable_count = 0
        active = np.arange(len(queries))
        # Each wave's post-transition encoding doubles as the next wave's
        # state matrix (frontier state is untouched in between), the same
        # recompute-avoidance run_episode gets from its carried vectors.
        matrix = frontier.state_matrix(active)
        while len(active):
            greedy = frontier.greedy_actions(
                active, self.network.predict_rows(matrix)
            )
            actions = np.empty(len(active), dtype=np.int64)
            for pos, index in enumerate(active):
                if self._rng.random() < epsilon:
                    actions[pos] = int(self._rng.choice(frontier.remaining(index)))
                else:
                    actions[pos] = greedy[pos]

            yield frontier.gather_probes(active, actions)

            frontier.transition(active, actions)
            next_matrix = frontier.state_matrix(active)
            viable, timeout, exhausted, fallback = frontier.termination(
                active, actions
            )
            finished = viable | timeout | exhausted

            # Batched terminal execution, frontier order: execute_batch is
            # observably equivalent to per-episode execute calls in the same
            # order, and the steps above never touch the engine's RNG, so
            # the wave's trajectory matches interleaved execution exactly.
            options = np.where(viable, actions, fallback)
            terminal_queries = [
                frontier.rewritten[int(active[pos])][int(options[pos])]
                for pos in finished.nonzero()[0]
            ]
            results = (
                self.database.execute_batch(terminal_queries)[0]
                if terminal_queries
                else []
            )

            terminal_rank = 0
            for pos in range(len(active)):
                index = int(active[pos])
                if not finished[pos]:
                    self.memory.push_values(
                        matrix[pos],
                        int(actions[pos]),
                        self.reward.intermediate_reward(),
                        next_matrix[pos],
                        ~frontier.explored[index],
                        False,
                    )
                    continue
                rewritten = terminal_queries[terminal_rank]
                result = results[terminal_rank]
                terminal_rank += 1
                outcome = EpisodeOutcome(
                    tau_ms=self.tau_ms,
                    elapsed_ms=float(frontier.elapsed[index]),
                    execution_ms=result.execution_ms,
                    original_query=frontier.queries[index],
                    rewritten_query=rewritten,
                    rewritten_result=result,
                )
                final_reward = self.reward.final_reward(outcome)
                total_reward += final_reward
                viable_count += int(outcome.viable)
                self.memory.push_values(
                    matrix[pos],
                    int(actions[pos]),
                    final_reward,
                    next_matrix[pos],
                    ~frontier.explored[index],
                    True,
                )
                if learn:
                    self._learn()
            active = active[~finished]
            matrix = next_matrix[~finished]
        return total_reward, viable_count

    # ------------------------------------------------------------------
    # Learning internals
    # ------------------------------------------------------------------
    def _learn(self) -> None:
        config = self.config
        if len(self.memory) < config.batch_size:
            return
        for _ in range(config.updates_per_episode):
            batch = self.memory.sample_arrays(config.batch_size, self._rng)
            targets = self._bellman_from_arrays(
                batch.rewards, batch.next_states, batch.next_masks, batch.terminals
            )
            self.network.train_batch(batch.states, batch.actions, targets)
        self._episodes_since_sync += 1
        if self._episodes_since_sync >= config.target_sync_episodes:
            self._target.set_weights(self.network.get_weights())
            self._episodes_since_sync = 0

    def _bellman_from_arrays(
        self,
        rewards: np.ndarray,
        next_states: np.ndarray,
        masks: np.ndarray,
        terminal: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Bellman targets: ``r + gamma * max_a' Q_target``.

        Operates on the replay ring buffer's stacked arrays directly — the
        per-update ``Transition`` gather/stack this replaces allocated
        ``batch_size`` objects and four stacking passes per gradient step.
        The masked max runs over the same legal-action subset and the
        scalar arithmetic per element is unchanged, so targets are
        bit-identical.
        """
        next_q = self._target.predict(next_states)
        has_next = masks.any(axis=1) & ~terminal
        masked_max = np.where(masks, next_q, -np.inf).max(axis=1)
        # Zero out the -inf placeholder rows before the (discarded) multiply
        # so gamma = 0 configurations cannot produce NaN warnings.
        best_next = np.where(has_next, masked_max, 0.0)
        return np.where(has_next, rewards + self.config.gamma * best_next, rewards)

    def _bellman_targets(self, batch: list[Transition]) -> np.ndarray:
        """Bellman targets for a list of transitions (compatibility view of
        :meth:`_bellman_from_arrays`; the hot path samples arrays)."""
        return self._bellman_from_arrays(
            np.fromiter((t.reward for t in batch), dtype=np.float64, count=len(batch)),
            np.stack([t.next_state for t in batch]),
            np.stack([t.next_mask for t in batch]),
            np.fromiter((t.terminal for t in batch), dtype=bool, count=len(batch)),
        )

    def _epsilon_at(self, epoch: int) -> float:
        config = self.config
        if config.epsilon_decay_epochs <= 0:
            return config.epsilon_end
        fraction = min(1.0, epoch / config.epsilon_decay_epochs)
        return config.epsilon_start + fraction * (
            config.epsilon_end - config.epsilon_start
        )


# ----------------------------------------------------------------------
# Hold-out validation (Section 7.1)
# ----------------------------------------------------------------------
def train_validated(
    database: Database,
    qte: QueryTimeEstimator,
    space: RewriteOptionSpace,
    tau_ms: float,
    train_queries: Sequence[SelectQuery],
    validation_queries: Sequence[SelectQuery] | None = None,
    n_candidates: int = 1,
    reward: RewardFunction | None = None,
    config: TrainingConfig | None = None,
    fused: bool = True,
) -> tuple[MalivaAgent, TrainingHistory]:
    """Hold-out validation: train ``n_candidates`` agents, keep the best.

    "We used a workload to train multiple MDP agents, and used a validation
    workload to choose a best agent" (Section 7.1).  With no validation
    workload (or a single candidate) the first agent is returned, trained
    exactly as a bare :meth:`DQNTrainer.train` call would (the bit-identical
    default path).

    With several candidates and ``fused=True`` (the default), candidates
    train in **shared-work mode**: all K trainers advance their lockstep
    epochs wave-synchronized over the one database/QTE/option-space build,
    pooling every wave's selectivity probes into a single
    :meth:`collect_batch` sweep across candidates, and validation runs
    through the staged batch-serving pipeline
    (:meth:`MalivaService.answer_many`) instead of per-query episodes.
    Each candidate's trajectory matches what its solo ``lockstep=True``
    training would produce (probe fusion is value-transparent); pass
    ``fused=False`` for the fully sequential per-candidate protocol.
    """
    if n_candidates < 1:
        raise TrainingError("need at least one candidate agent")
    base_config = config or TrainingConfig()

    def candidate_config(candidate: int) -> TrainingConfig:
        return TrainingConfig(
            **{
                **base_config.__dict__,
                "seed": base_config.seed + candidate * 7_919,
            }
        )

    if validation_queries is None or n_candidates == 1:
        trainer = DQNTrainer(
            database, qte, space, tau_ms, reward=reward, config=candidate_config(0)
        )
        history = trainer.train(train_queries)
        return trainer.agent, history

    if fused:
        trainers = [
            DQNTrainer(
                database,
                qte,
                space,
                tau_ms,
                reward=reward,
                config=replace(candidate_config(candidate), lockstep=True),
            )
            for candidate in range(n_candidates)
        ]
        histories = _train_candidates_fused(trainers, train_queries)
        scores = [
            _validation_vqp_batched(trainer, validation_queries)
            for trainer in trainers
        ]
        best = int(np.argmax(scores))
        return trainers[best].agent, histories[best]

    best_pair: tuple[MalivaAgent, TrainingHistory] | None = None
    best_score = -np.inf
    for candidate in range(n_candidates):
        trainer = DQNTrainer(
            database,
            qte,
            space,
            tau_ms,
            reward=reward,
            config=candidate_config(candidate),
        )
        history = trainer.train(train_queries)
        score = _validation_vqp(trainer, validation_queries)
        if score > best_score:
            best_score = score
            best_pair = (trainer.agent, history)
    assert best_pair is not None
    return best_pair


def _train_candidates_fused(
    trainers: Sequence[DQNTrainer], train_queries: Sequence[SelectQuery]
) -> list[TrainingHistory]:
    """Train all candidates wave-synchronized with pooled probe collection.

    Every candidate runs the exact epoch loop of :meth:`DQNTrainer.train`
    (own RNG, own shuffles, own convergence tracking); only the wall-clock
    schedule changes — per global wave, the probes of every candidate's
    frontier are collected in one fused pass before any candidate
    estimates.  Probe fusion is value-transparent (exact counts into the
    cross-request memo), so per-candidate trajectories are unchanged.
    """
    if not train_queries:
        raise TrainingError("cannot train on an empty workload")
    started = time.perf_counter()
    qte = trainers[0].qte
    histories = [TrainingHistory() for _ in trainers]
    trackers = [_ConvergenceTracker(trainer.config) for trainer in trainers]
    queries = [list(train_queries) for _ in trainers]
    done = [False] * len(trainers)

    while not all(done):
        waves: list[tuple[int, Generator]] = []
        for index, trainer in enumerate(trainers):
            if done[index]:
                continue
            epoch = histories[index].epochs_run
            epsilon = trainer._epsilon_at(epoch)
            trainer._rng.shuffle(queries[index])
            waves.append(
                (index, trainer._lockstep_waves(queries[index], epsilon, True))
            )

        results: dict[int, tuple[float, int]] = {}
        current: list[tuple[int, Generator, list]] = []
        for index, generator in waves:
            try:
                current.append((index, generator, next(generator)))
            except StopIteration as stop:  # pragma: no cover - needs 0 waves
                results[index] = stop.value
        while current:
            pooled = [probe for _, _, probes in current for probe in probes]
            if pooled:
                qte.collect_batch(pooled)
            advanced: list[tuple[int, Generator, list]] = []
            for index, generator, _ in current:
                try:
                    advanced.append((index, generator, next(generator)))
                except StopIteration as stop:
                    results[index] = stop.value
            current = advanced

        for index, (total_reward, viable) in results.items():
            history = histories[index]
            history.epoch_rewards.append(total_reward)
            history.epoch_viable_fraction.append(viable / len(queries[index]))
            history.epochs_run += 1
            if trackers[index].converged(history.epochs_run, total_reward):
                history.converged = True
                done[index] = True
            elif history.epochs_run >= trainers[index].config.max_epochs:
                done[index] = True

    elapsed = time.perf_counter() - started
    for history in histories:
        # Wall time is shared across the fused run; each candidate reports
        # the whole run (the quantity an operator actually waited for).
        history.training_seconds = elapsed
    return histories


def _validation_vqp(trainer: DQNTrainer, queries: Sequence[SelectQuery]) -> float:
    """Greedy (epsilon = 0) viable-query percentage on a validation set."""
    viable = 0
    for query in queries:
        _, was_viable = trainer.run_episode(query, epsilon=0.0, learn=False)
        viable += int(was_viable)
    return viable / max(1, len(queries))


def _validation_vqp_batched(
    trainer: DQNTrainer, queries: Sequence[SelectQuery]
) -> float:
    """Viable-query percentage through the staged serving pipeline.

    Plans the whole validation workload in one lockstep ``rewrite_batch``
    and executes it through the batch executor (arrival order, so engine
    RNG/caches see the sequential schedule).  On a deterministic profile
    this scores exactly what greedy :meth:`DQNTrainer.run_episode` passes
    would — planning and execution are bit-identical — while doing the
    engine work once per distinct probe/scan instead of once per query.
    """
    from ..serving import MalivaService  # deferred: serving imports core
    from ..serving.requests import VizRequest
    from ..serving.scheduler import FifoScheduler
    from .middleware import Maliva

    maliva = Maliva(trainer.database, trainer.space, trainer.qte, trainer.tau_ms)
    maliva.adopt_agent(trainer.agent)
    service = MalivaService(maliva, scheduler=FifoScheduler())
    outcomes = service.answer_many([VizRequest(payload=query) for query in queries])
    return sum(outcome.viable for outcome in outcomes) / max(1, len(queries))
