"""Experiment harness: run approaches over bucketed workloads, collect
the paper's metrics (VQP, AQRT, quality), and package the results.

Every evaluated technique implements the :class:`Approach` protocol —
``prepare(train, validation)`` then ``answer(query) -> RequestOutcome``.
Maliva, the baselines, and the quality-aware rewriters all plug in through
thin adapters defined here.

Evaluation is batch-native: an approach may additionally expose
``answer_batch(queries)``, and :func:`run_bucketed_comparison` then serves
each whole bucket through it — for :class:`MalivaApproach` that is the
staged resolve → schedule → plan-batch → execute-batch serving pipeline
(FIFO order, so the engine sees exactly the sequential schedule), which
shares planning and execution work across the bucket while producing
outcomes bit-identical to per-query ``answer`` calls.  Approaches whose
answering interleaves extra per-query engine work (quality-scored Maliva,
the two-stage rewriter, the baselines) simply don't opt in and keep the
sequential loop.  Per-approach, per-stage evaluation wall times are
recorded on every :class:`BucketRow` and aggregated into the experiment
report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import numpy as np

from ..core.middleware import Maliva, RequestOutcome
from ..core.quality_aware import TwoStageRewriter
from ..db import Database, SelectQuery
from ..serving import MalivaService, VizRequest
from ..serving.scheduler import FifoScheduler
from ..viz.quality import QualityFunction, evaluate_quality
from ..workloads import BucketedWorkload


class Approach(Protocol):
    """A query-rewriting technique under evaluation."""

    name: str

    def prepare(
        self,
        train_queries: Sequence[SelectQuery],
        validation_queries: Sequence[SelectQuery] | None = None,
    ) -> None:
        """Offline phase (training, fitting); may be a no-op."""

    def answer(self, query: SelectQuery) -> RequestOutcome:
        """Online phase: serve one visualization request."""


@dataclass
class MalivaApproach:
    """Adapter presenting a :class:`Maliva` instance as an Approach."""

    maliva: Maliva
    name: str
    n_candidates: int = 1
    quality_fn: QualityFunction | None = None
    #: Lazily-built batch-serving pipeline for :meth:`answer_batch`.
    _service: MalivaService | None = field(default=None, repr=False, compare=False)

    def prepare(
        self,
        train_queries: Sequence[SelectQuery],
        validation_queries: Sequence[SelectQuery] | None = None,
    ) -> None:
        self.maliva.train(
            train_queries, validation_queries, n_candidates=self.n_candidates
        )

    def answer(self, query: SelectQuery) -> RequestOutcome:
        return self.maliva.answer(query, quality_fn=self.quality_fn)

    def answer_batch(
        self, queries: Sequence[SelectQuery]
    ) -> tuple[list[RequestOutcome], dict[str, float]] | None:
        """Serve a whole bucket through the staged serving pipeline.

        Returns the outcomes (submission order) plus the pipeline's
        per-stage wall seconds for this bucket, or ``None`` when a quality
        function is configured — evaluating quality interleaves extra
        engine work per request, which only the sequential loop preserves.

        The pipeline runs FIFO (no session reordering) with lockstep
        planning and the batch executor, so per-request outcomes are
        bit-identical to sequential :meth:`answer` calls: same decisions,
        same virtual times, same engine RNG schedule.
        """
        if self.quality_fn is not None:
            return None
        if self._service is None:
            self._service = MalivaService(self.maliva, scheduler=FifoScheduler())
        before = dict(self._service.stats.stage_seconds)
        outcomes = self._service.answer_many(
            [VizRequest(payload=query) for query in queries]
        )
        stages = {
            stage: seconds - before.get(stage, 0.0)
            for stage, seconds in self._service.stats.stage_seconds.items()
        }
        return outcomes, stages


@dataclass
class TwoStageApproach:
    """Adapter presenting a :class:`TwoStageRewriter` as an Approach."""

    rewriter: TwoStageRewriter
    name: str = "2-stage MDP (accurate-QTE)"

    def prepare(
        self,
        train_queries: Sequence[SelectQuery],
        validation_queries: Sequence[SelectQuery] | None = None,
    ) -> None:
        self.rewriter.train(train_queries, validation_queries)

    def answer(self, query: SelectQuery) -> RequestOutcome:
        return self.rewriter.answer(query)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApproachSummary:
    """Aggregated metrics for one approach on one query bucket."""

    name: str
    n_queries: int
    #: Viable query percentage (paper metric 1), in percent.
    vqp: float
    #: Average query response time (paper metric 2), milliseconds.
    aqrt_ms: float
    avg_planning_ms: float
    avg_execution_ms: float
    #: Average visualization quality, if a quality function was supplied.
    avg_quality: float | None


def summarize(name: str, outcomes: Sequence[RequestOutcome]) -> ApproachSummary:
    """Aggregate per-query outcomes into the paper's metrics."""
    if not outcomes:
        return ApproachSummary(name, 0, 0.0, 0.0, 0.0, 0.0, None)
    qualities = [o.quality for o in outcomes if o.quality is not None]
    return ApproachSummary(
        name=name,
        n_queries=len(outcomes),
        vqp=100.0 * sum(o.viable for o in outcomes) / len(outcomes),
        aqrt_ms=float(np.mean([o.total_ms for o in outcomes])),
        avg_planning_ms=float(np.mean([o.planning_ms for o in outcomes])),
        avg_execution_ms=float(np.mean([o.execution_ms for o in outcomes])),
        avg_quality=float(np.mean(qualities)) if qualities else None,
    )


@dataclass
class BucketRow:
    """Metrics of every approach on one difficulty bucket."""

    bucket: str
    n_queries: int
    summaries: dict[str, ApproachSummary] = field(default_factory=dict)
    #: Per-approach evaluation wall seconds by pipeline stage.  Batched
    #: approaches report the serving stages (resolve/schedule/plan/execute)
    #: plus "wall"; sequential fallbacks report {"answer": ..., "wall": ...}.
    stage_seconds: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """A reproduced table/figure: metadata plus per-bucket metric rows."""

    experiment_id: str
    title: str
    metadata: dict
    rows: list[BucketRow]

    def approaches(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for name in row.summaries:
                if name not in names:
                    names.append(name)
        return names

    def series(self, approach: str, metric: str) -> list[tuple[str, float | None]]:
        """(bucket, value) series for one approach and metric."""
        series = []
        for row in self.rows:
            summary = row.summaries.get(approach)
            series.append(
                (row.bucket, None if summary is None else getattr(summary, metric))
            )
        return series

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """Per-approach evaluation stage timings summed across buckets."""
        totals: dict[str, dict[str, float]] = {}
        for row in self.rows:
            for name, stages in row.stage_seconds.items():
                into = totals.setdefault(name, {})
                for stage, seconds in stages.items():
                    into[stage] = into.get(stage, 0.0) + seconds
        return totals

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "metadata": self.metadata,
            "stage_seconds": self.stage_totals(),
            "rows": [
                {
                    "bucket": row.bucket,
                    "n_queries": row.n_queries,
                    "stage_seconds": row.stage_seconds,
                    "approaches": {
                        name: {
                            "vqp": summary.vqp,
                            "aqrt_ms": summary.aqrt_ms,
                            "avg_planning_ms": summary.avg_planning_ms,
                            "avg_execution_ms": summary.avg_execution_ms,
                            "avg_quality": summary.avg_quality,
                            "n_queries": summary.n_queries,
                        }
                        for name, summary in row.summaries.items()
                    },
                }
                for row in self.rows
            ],
        }


def run_bucketed_comparison(
    approaches: Sequence[Approach],
    bucketed: BucketedWorkload,
    min_bucket_size: int = 1,
    quality_fn: QualityFunction | None = None,
    database: Database | None = None,
    batched: bool = True,
) -> list[BucketRow]:
    """Evaluate prepared approaches bucket by bucket.

    Approaches exposing ``answer_batch`` serve each whole bucket through
    their batched pipeline (sharing planning/execution work across the
    bucket, outcomes identical to the sequential loop); everything else —
    and every approach when ``batched=False`` — answers query by query.
    Per-approach stage timings land in :attr:`BucketRow.stage_seconds`.

    When ``quality_fn`` and ``database`` are given, any outcome that did not
    report a quality value gets one computed here (offline, against the
    original query's exact result), so every approach is measured uniformly.
    """
    rows: list[BucketRow] = []
    for bucket in bucketed.buckets:
        queries = bucketed.queries[bucket.label]
        if len(queries) < min_bucket_size:
            continue
        row = BucketRow(bucket=bucket.label, n_queries=len(queries))
        for approach in approaches:
            started = time.perf_counter()
            outcomes: list[RequestOutcome] | None = None
            stages: dict[str, float] = {}
            answer_batch = getattr(approach, "answer_batch", None)
            if batched and answer_batch is not None:
                batch = answer_batch(queries)
                if batch is not None:
                    outcomes, stages = batch
            if outcomes is None:
                outcomes = [approach.answer(query) for query in queries]
                stages = {"answer": time.perf_counter() - started}
            if quality_fn is not None and database is not None:
                outcomes = [
                    o
                    if o.quality is not None
                    else replace(
                        o,
                        quality=evaluate_quality(
                            database, o.original, o.rewritten, o.result, quality_fn
                        ),
                    )
                    for o in outcomes
                ]
            row.summaries[approach.name] = summarize(approach.name, outcomes)
            row.stage_seconds[approach.name] = {
                **stages,
                "wall": time.perf_counter() - started,
            }
        rows.append(row)
    return rows
