"""Online query rewriting — the paper's Algorithm 2.

Given a trained agent, the rewriter plans greedily: at each step it picks
the unexplored rewritten query with the highest q-value, asks the QTE for
its time (paying the cost on the virtual clock), and stops as soon as one of
the termination conditions fires.  The decided rewritten query and the
planning time spent finding it are returned to the middleware.  Only the
options a request explores are ever built into rewritten queries; the
decision is one of them.

:meth:`MDPQueryRewriter.rewrite_batch` runs the algorithm for many
requests in lockstep over one :class:`~repro.core.frontier.LockstepFrontier`
— the one MDP kernel — and :meth:`MDPQueryRewriter.plan` is the same run
over a one-query frontier.  Every request still walks its own episode, but
the per-step work is batched across the active frontier: one q-network
forward pass per MDP depth (instead of one per request per step) and one
fused selectivity-collection pass per depth (instead of one sample count
per probe).  Rows never interact and the batched kernels are row-stable, so
decisions and virtual planning times are bit-identical to per-request
:meth:`MDPQueryRewriter.rewrite` calls.

Every planning call resolves its budgets through one check: a budget that
is not a positive finite number raises :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..errors import QueryError
from ..qte import QueryTimeEstimator
from .agent import MalivaAgent
from .frontier import LockstepFrontier, StartState


def checked_tau(tau_ms: float) -> float:
    """``tau_ms`` if it is a usable time budget; a budget that is not a
    positive finite number raises :class:`~repro.errors.QueryError`."""
    if not (math.isfinite(tau_ms) and tau_ms > 0):
        raise QueryError(f"time budget must be positive and finite, got {tau_ms}")
    return tau_ms


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

    def plan(
        self,
        query: SelectQuery,
        tau_ms: float | None = None,
        start: StartState | None = None,
    ) -> tuple[RewriteDecision, LockstepFrontier]:
        """Algorithm 2 for one request: a one-query frontier run.

        Returns the decision and the finished frontier, whose row 0 holds
        the request's end state (``elapsed[0]``, ``caches[0]``) so a caller
        — the two-stage rewriter — can chain a second planning phase from
        it via ``start``; the decision's ``planning_ms`` excludes the
        inherited elapsed time.  ``tau_ms`` overrides the agent's training
        budget for this request only; the agent's value estimates stay
        normalized to its training budget.
        """
        frontier = self._frontier([query], self._resolve_taus(1, tau_ms), [start])
        [decision] = self._run(frontier, 0.0 if start is None else start[0])
        return decision, frontier

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
        """
        taus = self._resolve_taus(len(queries), tau_ms)
        if not queries:
            return []
        return self._run(self._frontier(queries, taus))

    def _resolve_taus(
        self, n: int, tau_ms: float | Sequence[float | None] | None
    ) -> list[float]:
        """Per-request budgets; every planning call passes through here."""
        if tau_ms is None:
            return [self.agent.tau_ms] * n
        if isinstance(tau_ms, (int, float)):
            taus = [float(tau_ms)] * n
        else:
            taus = [self.agent.tau_ms if tau is None else float(tau) for tau in tau_ms]
        if len(taus) != n:
            raise QueryError(
                f"got {len(taus)} budgets for {n} queries in a planning batch"
            )
        return [checked_tau(tau) for tau in taus]

    def _frontier(
        self,
        queries: Sequence[SelectQuery],
        taus: Sequence[float],
        starts: Sequence[StartState | None] | None = None,
    ) -> LockstepFrontier:
        return LockstepFrontier(
            space=self.agent.space,
            qte=self.qte,
            queries=queries,
            taus=taus,
            database=self.database,
            tau_norm=self.agent.tau_ms,
            starts=starts,
        )

    def _run(
        self, frontier: LockstepFrontier, start_ms: float = 0.0
    ) -> list[RewriteDecision]:
        """Greedy Algorithm 2 over a frontier: one row-stable q-network pass
        and one fused collection pass per MDP depth.  ``start_ms`` is the
        elapsed time a chained planning phase inherited."""
        decisions: list[RewriteDecision | None] = [None] * len(frontier)
        active = np.arange(len(frontier))
        while len(active):
            # -- choose: one forward pass for the whole frontier ----------
            q = self.agent.network.predict_rows(frontier.state_matrix(active))
            actions = frontier.greedy_actions(active, q)

            # -- collect: one fused pass over the frontier's wave ---------
            self.qte.collect_wave(frontier.gather_probe_waves(active, actions))

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
                    rewritten=frontier.rewritten(index, option),
                    option_index=option,
                    option_label=self.agent.space.option(option).label(),
                    planning_ms=float(frontier.elapsed[index]) - start_ms,
                    reason=reason,
                    n_explored=int(frontier.n_explored[index]),
                )
            active = active[~finished]
        return [decision for decision in decisions if decision is not None]
