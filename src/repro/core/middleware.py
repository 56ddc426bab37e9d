"""The Maliva middleware facade: train offline, answer requests online.

``Maliva`` owns the option space, the QTE, the trained agent, and the time
budget.  :meth:`Maliva.answer` performs the full middleware loop of Figure 5:
plan a rewritten query with the MDP rewriter, send it to the database, and
report the total (planning + execution) virtual response time, which is what
the paper's VQP and AQRT metrics measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..db import BatchSharingStats, Database, ExecutionResult, SelectQuery
from ..errors import TrainingError
from ..qte import QueryTimeEstimator
from ..viz.quality import QualityFunction, evaluate_quality
from .agent import MalivaAgent
from .options import RewriteOptionSpace
from .rewriter import MDPQueryRewriter, RewriteDecision
from .trainer import TrainingConfig, TrainingHistory, train_validated
from .reward import RewardFunction


@dataclass(frozen=True)
class RequestOutcome:
    """End-to-end outcome of answering one visualization request."""

    original: SelectQuery
    rewritten: SelectQuery
    option_label: str
    reason: str
    planning_ms: float
    execution_ms: float
    result: ExecutionResult
    tau_ms: float
    quality: float | None = None
    #: Engine-cache reuse while executing this request (see ExecutionResult).
    cache_hits: int = 0
    cache_misses: int = 0
    plan_cached: bool = False

    @property
    def total_ms(self) -> float:
        return self.planning_ms + self.execution_ms

    @property
    def viable(self) -> bool:
        """Total response time within the budget — the paper's viability."""
        return self.total_ms <= self.tau_ms


class Maliva:
    """ML-based middleware for interactive visualization (the paper's system)."""

    def __init__(
        self,
        database: Database,
        space: RewriteOptionSpace,
        qte: QueryTimeEstimator,
        tau_ms: float,
        reward: RewardFunction | None = None,
        config: TrainingConfig | None = None,
    ) -> None:
        if tau_ms <= 0:
            raise TrainingError("time budget must be positive")
        self.database = database
        self.space = space
        self.qte = qte
        self.tau_ms = tau_ms
        self.reward = reward
        self.config = config or TrainingConfig()
        self._agent: MalivaAgent | None = None
        self._rewriter: MDPQueryRewriter | None = None
        self.training_history: TrainingHistory | None = None

    # ------------------------------------------------------------------
    @property
    def agent(self) -> MalivaAgent:
        if self._agent is None:
            raise TrainingError("Maliva.train() must be called before use")
        return self._agent

    @property
    def is_trained(self) -> bool:
        return self._agent is not None

    def train(
        self,
        train_queries: Sequence[SelectQuery],
        validation_queries: Sequence[SelectQuery] | None = None,
        n_candidates: int = 1,
    ) -> TrainingHistory:
        """Train the MDP agent offline (Algorithm 1 + hold-out validation)."""
        agent, history = train_validated(
            self.database,
            self.qte,
            self.space,
            self.tau_ms,
            train_queries,
            validation_queries,
            n_candidates=n_candidates,
            reward=self.reward,
            config=self.config,
        )
        self._agent = agent
        self._rewriter = MDPQueryRewriter(agent, self.database, self.qte)
        self.training_history = history
        return history

    def adopt_agent(self, agent: MalivaAgent) -> None:
        """Install an externally trained agent (generalization experiments)."""
        self._agent = agent
        self._rewriter = MDPQueryRewriter(agent, self.database, self.qte)

    # ------------------------------------------------------------------
    @property
    def rewriter(self) -> MDPQueryRewriter:
        if self._rewriter is None:
            raise TrainingError("Maliva.train() must be called before use")
        return self._rewriter

    def rewrite(
        self, query: SelectQuery, tau_ms: float | None = None
    ) -> RewriteDecision:
        """Plan only (Algorithm 2), without executing the final query."""
        return self.rewriter.rewrite(query, tau_ms=tau_ms)

    def rewrite_batch(
        self,
        queries: Sequence[SelectQuery],
        tau_ms: float | Sequence[float | None] | None = None,
    ) -> list[RewriteDecision]:
        """Plan many requests in lockstep (bit-identical to :meth:`rewrite`).

        One q-network forward pass per MDP depth and one fused selectivity
        pass per depth serve the whole batch; see
        :meth:`MDPQueryRewriter.rewrite_batch`.
        """
        return self.rewriter.rewrite_batch(queries, tau_ms)

    def answer(
        self,
        query: SelectQuery,
        quality_fn: QualityFunction | None = None,
        tau_ms: float | None = None,
    ) -> RequestOutcome:
        """Full middleware loop: rewrite, execute, report.

        ``tau_ms`` optionally overrides the middleware's budget for this
        request only (per-request deadlines in the serving layer).
        """
        effective_tau = self.tau_ms if tau_ms is None else tau_ms
        decision = self.rewrite(query, tau_ms=effective_tau)
        return self.finish(query, decision, effective_tau, quality_fn)

    def assemble_outcome(
        self,
        query: SelectQuery,
        decision: RewriteDecision,
        tau_ms: float,
        result: ExecutionResult,
        quality: float | None = None,
    ) -> RequestOutcome:
        """Wrap an execution result of a planned decision as an outcome.

        The one place outcome assembly happens: :meth:`finish`,
        :meth:`finish_batch`, and the sharded service's gathered/merged
        executions all report through it.
        """
        return RequestOutcome(
            original=query,
            rewritten=decision.rewritten,
            option_label=decision.option_label,
            reason=decision.reason,
            planning_ms=decision.planning_ms,
            execution_ms=result.execution_ms,
            result=result,
            tau_ms=tau_ms,
            quality=quality,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            plan_cached=result.plan_cached,
        )

    def finish(
        self,
        query: SelectQuery,
        decision: RewriteDecision,
        tau_ms: float,
        quality_fn: QualityFunction | None = None,
    ) -> RequestOutcome:
        """Execute an already-planned decision and assemble the outcome.

        Split out of :meth:`answer` so the serving layer can reuse cached
        decisions while keeping the execute/report path identical.
        """
        result = self.database.execute(decision.rewritten)
        quality = None
        if quality_fn is not None:
            quality = evaluate_quality(
                self.database, query, decision.rewritten, result, quality_fn
            )
        return self.assemble_outcome(query, decision, tau_ms, result, quality)

    def finish_batch(
        self,
        queries: Sequence[SelectQuery],
        decisions: Sequence[RewriteDecision],
        tau_ms: Sequence[float],
    ) -> tuple[list[RequestOutcome], BatchSharingStats]:
        """Execute many planned decisions through the batched executor.

        Outcomes are element-wise identical to :meth:`finish` called per
        request in the same order (the batch executor's equivalence
        contract); the returned sharing stats describe how much scan/index/
        binning work the batch deduplicated.  Quality evaluation is not
        supported here — it interleaves extra engine work per request, which
        the serving layer preserves by falling back to sequential
        :meth:`finish` calls when a quality function is configured.
        """
        if not (len(queries) == len(decisions) == len(tau_ms)):
            raise TrainingError("finish_batch arguments must have equal lengths")
        results, sharing = self.database.execute_batch(
            [decision.rewritten for decision in decisions]
        )
        outcomes = [
            self.assemble_outcome(query, decision, tau, result)
            for query, decision, tau, result in zip(queries, decisions, tau_ms, results)
        ]
        return outcomes, sharing

    def service(self, **kwargs) -> "object":
        """Build a :class:`repro.serving.MalivaService` over this middleware."""
        from ..serving import MalivaService  # deferred: serving imports core

        return MalivaService(self, **kwargs)
