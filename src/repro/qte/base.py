"""Query-time-estimator (QTE) protocol.

A QTE estimates the execution time of a rewritten query.  Estimation is not
free: collecting each filter condition's selectivity costs virtual time, and
those costs shrink as the per-request :class:`~repro.qte.selectivity.
SelectivityCache` fills up — the mechanism behind the paper's state
transitions (estimating RQ1 makes estimating RQ5 cheaper because they share
the Location selectivity).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..db import SelectQuery
from .selectivity import SelectivityCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.predicates import Predicate


@dataclass(frozen=True)
class EstimationOutcome:
    """What one QTE call produced and what it cost."""

    estimated_ms: float
    cost_ms: float


def required_attributes(rewritten: SelectQuery) -> frozenset[str]:
    """Filter attributes whose selectivity the QTE must collect for ``rewritten``.

    These are the attributes whose index the hint set instructs the engine
    to use: an index-scan's cost is driven by its access-path
    selectivities.  A full-scan rewritten query needs none (its cost follows
    from the table size alone).
    """
    if rewritten.hints is None:
        return frozenset()
    present = {p.column for p in rewritten.predicates}
    return frozenset(rewritten.hints.index_on & present)


class QueryTimeEstimator(ABC):
    """Estimates rewritten-query execution times at a virtual-time cost."""

    name: str = "qte"

    def predict_cost_ms(self, rewritten: SelectQuery, cache: SelectivityCache) -> float:
        """Predicted cost of estimating ``rewritten`` given what is cached:
        :meth:`estimation_cost_ms` of its uncollected required attributes.
        Does not mutate the cache."""
        missing = cache.missing(required_attributes(rewritten))
        return self.estimation_cost_ms(len(missing))

    @abstractmethod
    def estimate(
        self, rewritten: SelectQuery, cache: SelectivityCache
    ) -> EstimationOutcome:
        """Estimate the execution time, collecting selectivities as needed.

        Mutates ``cache`` with newly collected selectivities and returns
        both the estimate and the actual cost incurred.
        """

    @abstractmethod
    def cost_structure(self) -> tuple[float, float]:
        """``(unit_cost_ms, overhead_ms)``: this estimator's cost is
        ``overhead + unit × |uncollected required attributes|``.

        The MDP frontier re-prices every unexplored option with vectorized
        counting against this shape; an estimator with a constant cost
        declares ``(0.0, cost_ms)``.
        """

    def estimation_cost_ms(self, n_uncollected):
        """``overhead + unit × n_uncollected``: the cost of one estimate that
        must collect ``n_uncollected`` selectivities (element-wise over an
        array of counts — the frontier prices whole matrices with it)."""
        unit_cost_ms, overhead_ms = self.cost_structure()
        return overhead_ms + unit_cost_ms * n_uncollected

    def predict_costs(
        self, rewritten_queries: Sequence[SelectQuery], cache: SelectivityCache
    ) -> list[float]:
        """:meth:`predict_cost_ms` over several rewritten queries."""
        return [self.predict_cost_ms(rq, cache) for rq in rewritten_queries]

    def collect_batch(self, probes: Sequence["Predicate"]) -> None:
        """Pre-collect many selectivity probes ahead of :meth:`estimate`.

        The lockstep planner gathers the uncollected (attribute, predicate)
        probes of a whole request frontier and offers them here so an
        estimator can answer them in fused, vectorized passes and memoize
        the results; the per-request ``estimate`` calls that follow then hit
        those memos.  Purely a host-side accelerator: implementations MUST
        produce bit-identical selectivity values to their sequential path
        and MUST NOT touch any per-request cache or virtual-cost accounting.
        The default does nothing (memoless QTEs have nothing to fuse).
        """

    def collect_wave(
        self, wave: Sequence[tuple[SelectQuery, "Sequence[Predicate]"]]
    ) -> None:
        """Pre-collect one lockstep wave of estimations ahead of :meth:`estimate`.

        ``wave`` holds one ``(rewritten query, uncollected probes)`` pair per
        active request at the current MDP depth — *including* requests with
        no uncollected probes, because some estimators (the accurate QTE)
        resolve a true execution time per estimate regardless of probes.
        Same transparency contract as :meth:`collect_batch`: bit-identical
        values, no per-request cache or cost accounting.  The default
        flattens the probes into one :meth:`collect_batch` call.
        """
        probes = [probe for _rewritten, items in wave for probe in items]
        if probes:
            self.collect_batch(probes)

    def invalidate(self) -> None:
        """Drop any cross-request memoization (no-op for memoless QTEs).

        The serving layer calls this whenever the underlying database
        mutates, so estimators never serve stale selectivities.
        """

    def cache_stats(self) -> tuple:
        """Hit-rate counters of the QTE's cross-request memos (may be empty)."""
        return ()
