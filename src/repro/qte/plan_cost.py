"""The Plan-Cost QTE: trust the optimizer's own cost estimate.

This is the cheapest possible estimator — asking the optimizer to cost a
hinted plan takes a few milliseconds and needs no selectivity collection —
and also the least reliable one on text/spatial conditions, since it is
built on exactly the statistics whose errors motivate the paper.  It
completes the QTE spectrum:

=================  ==============  ======================================
estimator          cost/estimate   error source
=================  ==============  ======================================
PlanCostQTE        ~2 ms           optimizer statistics (can be 100x off)
SamplingQTE        ~10 ms/cond     sampling noise + model misfit
AccurateQTE        ~40 ms/cond     none (oracle)
=================  ==============  ======================================

A scale factor mapping estimated cost to predicted milliseconds is fitted
on a training workload (one global multiplicative correction, which is all
the signal the optimizer's costs reliably carry).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..errors import EstimationError
from .base import EstimationOutcome, QueryTimeEstimator
from .selectivity import SelectivityCache


class PlanCostQTE(QueryTimeEstimator):
    """Estimate execution time as (fitted scale) x optimizer plan cost."""

    name = "plan-cost"

    def __init__(self, database: Database, cost_ms: float = 2.0) -> None:
        self._db = database
        self.cost_ms = cost_ms
        self._log_scale: float | None = None

    def fit(self, rewritten_queries: Sequence[SelectQuery]) -> float:
        """Fit the global log-scale correction; returns log-space RMSE."""
        if not rewritten_queries:
            raise EstimationError("cannot fit PlanCostQTE on an empty workload")
        residuals = []
        for rewritten in rewritten_queries:
            plan = self._db.explain(rewritten)
            observed = self._db.execute(rewritten).execution_ms
            residuals.append(
                math.log1p(observed) - math.log1p(max(plan.estimated_cost_ms, 0.0))
            )
        self._log_scale = float(np.median(residuals))
        spread = np.asarray(residuals) - self._log_scale
        return float(np.sqrt(np.mean(spread**2)))

    @property
    def is_fitted(self) -> bool:
        return self._log_scale is not None

    def cost_structure(self) -> tuple[float, float]:
        # Constant cost: a unit-cost structure with a zero per-condition term.
        return (0.0, self.cost_ms)

    def estimate(
        self, rewritten: SelectQuery, cache: SelectivityCache
    ) -> EstimationOutcome:
        if self._log_scale is None:
            raise EstimationError("PlanCostQTE.estimate called before fit()")
        plan = self._db.explain(rewritten)
        predicted_log = math.log1p(max(plan.estimated_cost_ms, 0.0)) + self._log_scale
        estimated_ms = float(np.clip(math.expm1(min(predicted_log, 25.0)), 0.1, 1e7))
        return EstimationOutcome(estimated_ms=estimated_ms, cost_ms=self.cost_ms)
