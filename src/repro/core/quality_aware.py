"""Quality-aware query rewriting: the one-stage and two-stage approaches
of Section 6.2.

*One-stage* — a single agent over the combined hint + approximation option
space, trained with the quality-aware reward (Equation 2).  It maximizes the
chance of viability (approximate options are always on the table) at some
quality cost.

*Two-stage* — first run the ordinary efficiency agent over hint-only
options; only if it exhausts them without finding a viable RQ (and budget
remains) does a second, quality-aware agent explore the approximate options,
inheriting the elapsed time and the selectivities collected in stage one.
It never approximates when an exact viable rewrite exists, trading a little
viability for much better quality — exactly the trade-off in Figure 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..db import Database, SelectQuery
from ..errors import TrainingError
from ..qte import QueryTimeEstimator
from ..viz.quality import JaccardQuality, QualityFunction, evaluate_quality
from .frontier import StartState
from .middleware import Maliva, RequestOutcome
from .options import RewriteOptionSpace
from .rewriter import MDPQueryRewriter, RewriteDecision
from .reward import EfficiencyReward, QualityAwareReward
from .trainer import DQNTrainer, TrainingConfig, TrainingHistory


def build_one_stage(
    database: Database,
    combined_space: RewriteOptionSpace,
    qte: QueryTimeEstimator,
    tau_ms: float,
    beta: float = 0.5,
    quality_fn: QualityFunction | None = None,
    config: TrainingConfig | None = None,
) -> Maliva:
    """The one-stage quality-aware rewriter: Maliva over the combined space
    with the Equation-2 reward."""
    reward = QualityAwareReward(
        database, quality_fn or JaccardQuality(), beta=beta
    )
    return Maliva(database, combined_space, qte, tau_ms, reward=reward, config=config)


@dataclass
class TwoStageHistory:
    """Training diagnostics for both stages."""

    stage_one: TrainingHistory
    stage_two: TrainingHistory
    #: Fraction of training queries that needed stage two.
    stage_two_fraction: float


class TwoStageRewriter:
    """The two-stage quality-aware rewriter of Section 6.2."""

    def __init__(
        self,
        database: Database,
        hint_space: RewriteOptionSpace,
        approx_space: RewriteOptionSpace,
        qte: QueryTimeEstimator,
        tau_ms: float,
        beta: float = 0.5,
        quality_fn: QualityFunction | None = None,
        config: TrainingConfig | None = None,
    ) -> None:
        if any(option.is_approximate for option in hint_space):
            raise TrainingError("stage-one space must be approximation-free")
        self.database = database
        self.qte = qte
        self.tau_ms = tau_ms
        self.quality_fn = quality_fn or JaccardQuality()
        self.config = config or TrainingConfig()
        self.stage_one = Maliva(
            database,
            hint_space,
            qte,
            tau_ms,
            reward=EfficiencyReward(),
            config=self.config,
        )
        self.approx_space = approx_space
        self._stage_two_reward = QualityAwareReward(database, self.quality_fn, beta)
        self._stage_two_trainer: DQNTrainer | None = None
        self.history: TwoStageHistory | None = None

    # ------------------------------------------------------------------
    def train(
        self,
        train_queries: Sequence[SelectQuery],
        validation_queries: Sequence[SelectQuery] | None = None,
    ) -> TwoStageHistory:
        """Train stage one, then stage two on queries stage one cannot serve.

        Stage-two episodes start from the state stage one leaves behind:
        elapsed planning time and the shared selectivity cache both carry
        over, exactly as in the paper's Figure 11 timeline.
        """
        history_one = self.stage_one.train(train_queries, validation_queries)

        # Collect stage-two training starts by replaying stage one greedily.
        rewriter = MDPQueryRewriter(self.stage_one.agent, self.database, self.qte)
        stage_two_queries: list[SelectQuery] = []
        starts: dict[tuple, StartState] = {}
        for query in train_queries:
            start = self._stage_two_start(rewriter, query)[1]
            if start is not None:
                stage_two_queries.append(query)
                starts[query.key()] = start

        trainer = DQNTrainer(
            self.database,
            self.qte,
            self.approx_space,
            self.tau_ms,
            reward=self._stage_two_reward,
            config=self.config,
            starts=starts,
        )
        if stage_two_queries:
            history_two = trainer.train(stage_two_queries)
        else:  # Nothing escaped stage one; keep an untrained (random) net.
            history_two = TrainingHistory()
        self._stage_two_trainer = trainer
        self.history = TwoStageHistory(
            stage_one=history_one,
            stage_two=history_two,
            stage_two_fraction=len(stage_two_queries) / max(1, len(train_queries)),
        )
        return self.history

    # ------------------------------------------------------------------
    def answer(
        self, query: SelectQuery, quality_fn: QualityFunction | None = None
    ) -> RequestOutcome:
        """Stage one; fall through to quality-aware stage two if exhausted."""
        if self._stage_two_trainer is None:
            raise TrainingError("TwoStageRewriter.train() must be called first")
        rewriter = MDPQueryRewriter(self.stage_one.agent, self.database, self.qte)
        decision, start = self._stage_two_start(rewriter, query)
        if start is not None:
            stage_two = MDPQueryRewriter(
                self._stage_two_trainer.agent, self.database, self.qte
            )
            decision, frontier = stage_two.plan(query, start=start)
            planning_ms = float(frontier.elapsed[0])
        else:
            planning_ms = decision.planning_ms

        result = self.database.execute(decision.rewritten)
        fn = quality_fn or self.quality_fn
        quality = evaluate_quality(
            self.database, query, decision.rewritten, result, fn
        )
        return RequestOutcome(
            original=query,
            rewritten=decision.rewritten,
            option_label=decision.option_label,
            reason=decision.reason,
            planning_ms=planning_ms,
            execution_ms=result.execution_ms,
            result=result,
            tau_ms=self.tau_ms,
            quality=quality,
        )

    def _stage_two_start(
        self, rewriter: MDPQueryRewriter, query: SelectQuery
    ) -> tuple[RewriteDecision, StartState | None]:
        """Plan stage one; return its decision and, when it exhausted the
        exact options with budget left, the state stage two starts from."""
        decision, frontier = rewriter.plan(query)
        elapsed = float(frontier.elapsed[0])
        if decision.reason == "exhausted" and elapsed < self.tau_ms:
            return decision, (elapsed, frontier.caches[0])
        return decision, None
