"""Online query rewriting — the paper's Algorithm 2.

Given a trained agent, the rewriter plans greedily: at each step it picks
the unexplored rewritten query with the highest q-value, asks the QTE for
its time (paying the cost on the virtual clock), and stops as soon as one of
the termination conditions fires.  The decided rewritten query and the
planning time spent finding it are returned to the middleware.

:meth:`MDPQueryRewriter.plan_batch` runs the same algorithm for many
requests in lockstep: every request still walks its own MDP episode, but
the per-step work is batched across the active frontier — one q-network
forward pass per MDP depth (instead of one per request per step) and one
fused selectivity-collection pass per depth (instead of one sample count
per probe).  Each request's state only ever sees its own episode, and the
batched kernels are row-stable, so decisions and virtual planning times are
bit-identical to per-request :meth:`MDPQueryRewriter.plan` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..db.caches import CacheStats, InstrumentedCache
from ..errors import QueryError
from ..qte import QueryTimeEstimator, SelectivityCache
from .agent import MalivaAgent
from .environment import RewriteEpisode
from .frontier import LockstepFrontier


@dataclass(frozen=True)
class RewriteDecision:
    """What the rewriter decided for one request."""

    rewritten: SelectQuery
    option_index: int
    option_label: str
    #: Virtual time spent planning (QTE costs accumulated).
    planning_ms: float
    #: "viable" | "timeout" | "exhausted".
    reason: str
    #: How many rewritten queries were estimated.
    n_explored: int


class MDPQueryRewriter:
    """Runs Algorithm 2 for each incoming query."""

    def __init__(
        self,
        agent: MalivaAgent,
        database: Database,
        qte: QueryTimeEstimator,
    ) -> None:
        self.agent = agent
        self.database = database
        self.qte = qte
        # Cross-request memo of the candidate rewritten queries per original
        # query: rebuilding all |Ω| RQs (and re-deriving their cache keys)
        # dominates episode construction for repeated queries.  Approximation
        # rules read table statistics and sample cardinalities, so ANY
        # catalog change conservatively drops the whole memo (rebuilds are
        # cheap; staleness is not).  Sized to what re-plans the same query:
        # a training set or a dashboard's views.  On serving traffic the
        # decision cache answers repeats first, so this memo is reached only
        # by queries it has not seen, and each entry holds |Ω| SelectQuery
        # objects — a larger memo only fills up with never-repeated ones.
        self._build_cache = InstrumentedCache("rq_build", capacity=256)
        database.add_invalidation_hook(self._on_table_invalidated)

    def _on_table_invalidated(self, table_name: str) -> None:
        self._build_cache.clear()

    @property
    def build_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the candidate-query memo."""
        return self._build_cache.stats.snapshot()

    def candidate_queries(self, query: SelectQuery) -> list[SelectQuery]:
        """The option space applied to ``query``, memoized across requests."""
        key = query.key()
        cached = self._build_cache.get(key)
        if cached is not None:
            return cached
        rewritten = self.agent.space.build_all(query, self.database)
        self._build_cache.put(key, rewritten)
        return rewritten

    def plan(
        self,
        query: SelectQuery,
        start_elapsed_ms: float = 0.0,
        cache: SelectivityCache | None = None,
        tau_ms: float | None = None,
    ) -> tuple[RewriteDecision, RewriteEpisode]:
        """Run the planning loop; returns the decision and the episode.

        The episode is exposed so callers (the two-stage rewriter) can chain
        a second planning phase that inherits elapsed time and collected
        selectivities.  ``tau_ms`` overrides the agent's training budget for
        this request only — the serving layer uses it for per-request
        deadlines; the agent's value estimates stay normalized to its
        training budget.
        """
        episode = RewriteEpisode(
            self.database,
            self.qte,
            self.agent.space,
            query,
            self.agent.tau_ms if tau_ms is None else tau_ms,
            start_elapsed_ms=start_elapsed_ms,
            cache=cache,
            rewritten_queries=self.candidate_queries(query),
        )
        n_explored = 0
        while True:
            action = self.agent.best_action(episode.state, episode.remaining())
            step = episode.step(action)
            n_explored += 1
            if step.decision is None:
                continue
            option_index = step.decision.option_index
            decision = RewriteDecision(
                rewritten=episode.rewritten(option_index),
                option_index=option_index,
                option_label=self.agent.space.option(option_index).label(),
                planning_ms=episode.state.elapsed_ms - start_elapsed_ms,
                reason=step.decision.reason,
                n_explored=n_explored,
            )
            return decision, episode

    def rewrite(
        self, query: SelectQuery, tau_ms: float | None = None
    ) -> RewriteDecision:
        """Algorithm 2: plan and return the chosen rewritten query."""
        decision, _ = self.plan(query, tau_ms=tau_ms)
        return decision

    # ------------------------------------------------------------------
    # Lockstep batch planning
    # ------------------------------------------------------------------
    def rewrite_batch(
        self,
        queries: Sequence[SelectQuery],
        tau_ms: float | Sequence[float | None] | None = None,
    ) -> list[RewriteDecision]:
        """Batched Algorithm 2: plan many requests in lockstep.

        ``tau_ms`` may be a single override for every request, a per-request
        sequence (``None`` entries fall back to the agent's budget), or
        ``None``.  Decisions are positionally aligned with ``queries`` and
        bit-identical to per-request :meth:`rewrite` calls (the lockstep
        invariant; see the module docstring).

        Requires a QTE with a declared
        :meth:`~repro.qte.QueryTimeEstimator.cost_structure`; other
        estimators fall back to per-request planning.
        """
        taus = self._resolve_taus(len(queries), tau_ms)
        if not queries:
            return []
        if self.qte.cost_structure() is None:
            return [self.plan(q, tau_ms=t)[0] for q, t in zip(queries, taus)]
        return _LockstepFrontier(self, queries, taus).run()

    def _resolve_taus(
        self, n: int, tau_ms: float | Sequence[float | None] | None
    ) -> list[float]:
        if tau_ms is None:
            return [self.agent.tau_ms] * n
        if isinstance(tau_ms, (int, float)):
            return [float(tau_ms)] * n
        taus = [self.agent.tau_ms if tau is None else float(tau) for tau in tau_ms]
        if len(taus) != n:
            raise QueryError(
                f"got {len(taus)} budgets for {n} queries in a planning batch"
            )
        return taus


class _LockstepFrontier:
    """Greedy batch planner over the shared :class:`LockstepFrontier`.

    The vectorized episode math (stacked E/C/T/explored matrices, fused
    probe collection, sibling re-pricing, termination) lives in
    :mod:`repro.core.frontier`, shared with the wave-mode trainer; this
    wrapper composes it into Algorithm 2 — one row-stable q-network pass
    per MDP depth, decisions bit-identical to sequential planning (the
    property ``tests/serving/test_pipeline_equivalence.py`` pins down).
    """

    def __init__(
        self,
        rewriter: MDPQueryRewriter,
        queries: Sequence[SelectQuery],
        taus: Sequence[float],
    ) -> None:
        self.agent = rewriter.agent
        self.frontier = LockstepFrontier(
            space=self.agent.space,
            qte=rewriter.qte,
            queries=queries,
            taus=taus,
            rewritten=[rewriter.candidate_queries(query) for query in queries],
            tau_norm=self.agent.tau_ms,
        )

    def run(self) -> list[RewriteDecision]:
        frontier = self.frontier
        decisions: list[RewriteDecision | None] = [None] * len(frontier)
        active = np.arange(len(frontier))
        while len(active):
            # -- choose: one forward pass for the whole frontier ----------
            q = self.agent.network.predict_rows(frontier.state_matrix(active))
            actions = frontier.greedy_actions(active, q)

            # -- collect: one fused pass over the frontier's wave ---------
            frontier.qte.collect_wave(
                frontier.gather_probe_waves(active, actions)
            )

            # -- estimate + transition, vectorized across the frontier ----
            frontier.transition(active, actions)

            # -- terminate: vectorized Algorithm 2 checks -----------------
            viable, timeout, exhausted, fallback = frontier.termination(
                active, actions
            )
            finished = viable | timeout | exhausted
            for pos in finished.nonzero()[0]:
                index = int(active[pos])
                if viable[pos]:
                    option, reason = int(actions[pos]), "viable"
                elif timeout[pos]:
                    option, reason = int(fallback[pos]), "timeout"
                else:
                    option, reason = int(fallback[pos]), "exhausted"
                decisions[index] = RewriteDecision(
                    rewritten=frontier.rewritten[index][option],
                    option_index=option,
                    option_label=self.agent.space.option(option).label(),
                    planning_ms=float(frontier.elapsed[index]),
                    reason=reason,
                    n_explored=int(frontier.n_explored[index]),
                )
            active = active[~finished]
        return [decision for decision in decisions if decision is not None]
