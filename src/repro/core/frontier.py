"""Vectorized lockstep frontier: many MDP episodes as stacked matrices.

The same machinery drives two batch-native stages:

* the **batch planner** (:meth:`repro.core.rewriter.MDPQueryRewriter.
  rewrite_batch`) plans a whole request frontier greedily, and
* the **wave-mode trainer** (:meth:`repro.core.trainer.DQNTrainer.
  run_episodes_lockstep`) runs a whole epoch's episodes as epsilon-greedy
  waves, recording replay transitions from the same matrices.

Per-request state lives in matrix rows — ``elapsed`` (E), ``costs`` (C),
``times`` (T), ``explored`` — and every per-step transition except the QTE
estimate itself runs as one numpy operation over the active frontier:

* action scoring: one row-stable q-network pass over
  :meth:`state_matrix` + masked argmax (:meth:`greedy_actions`);
* selectivity collection: one fused :meth:`~repro.qte.QueryTimeEstimator.
  collect_batch` pass over the frontier's uncollected probes
  (:meth:`gather_probes`);
* sibling re-pricing: ``overhead + unit × missing`` counted through a
  boolean (request, option, column) required-attribute tensor
  (:meth:`transition`);
* termination: vectorized viable/timeout/exhausted checks with a masked
  argmin for the fallback decision (:meth:`termination`).

Every element-wise operation mirrors the scalar arithmetic of
:class:`~repro.core.environment.RewriteEpisode` exactly, so decisions and
virtual times are bit-identical to sequential planning — the property
``tests/serving/test_pipeline_equivalence.py`` pins down.  Requires a QTE
with a declared unit-cost :meth:`~repro.qte.QueryTimeEstimator.
cost_structure`; callers fall back to per-request episodes otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db import SelectQuery
from ..qte import QueryTimeEstimator, SelectivityCache
from .options import RewriteOptionSpace
from .state import TIME_CLIP_BUDGETS


@dataclass
class FrontierLayout:
    """The workload-only frontier tensors: reusable across epochs.

    Columns, per-column predicates, and the required-attribute tensor
    depend only on ``(queries, rewritten)`` — not on any per-episode state
    — so a trainer replaying the same workload every epoch builds them
    once and hands the layout to each epoch's :class:`LockstepFrontier`.
    The tensor is read-only to the frontier (``collected`` is per-frontier
    state), which is what makes the sharing safe.
    """

    columns: list[list[str]]
    predicate_of: list[dict[str, object]]
    required: np.ndarray

    @staticmethod
    def build(
        queries: Sequence[SelectQuery],
        rewritten: Sequence[list[SelectQuery]],
        n_options: int,
    ) -> "FrontierLayout":
        columns_per: list[list[str]] = []
        predicate_of: list[dict[str, object]] = []
        for query in queries:
            columns: list[str] = []
            by_column: dict[str, object] = {}
            for predicate in query.predicates:
                if predicate.column not in by_column:
                    columns.append(predicate.column)
                by_column[predicate.column] = predicate
            columns_per.append(columns)
            predicate_of.append(by_column)
        k = len(queries)
        m = max((len(cols) for cols in columns_per), default=0)
        required = np.zeros((k, n_options, max(m, 1)), dtype=bool)
        for i, rqs in enumerate(rewritten):
            col_index = {c: ci for ci, c in enumerate(columns_per[i])}
            for j, rq in enumerate(rqs):
                if rq.hints is None:
                    continue
                for column in rq.hints.index_on:
                    ci = col_index.get(column)
                    if ci is not None:
                        required[i, j, ci] = True
        return FrontierLayout(
            columns=columns_per, predicate_of=predicate_of, required=required
        )


class LockstepFrontier:
    """Stacked per-request MDP state for one batch of queries."""

    def __init__(
        self,
        space: RewriteOptionSpace,
        qte: QueryTimeEstimator,
        queries: Sequence[SelectQuery],
        taus: Sequence[float],
        rewritten: Sequence[list[SelectQuery]],
        tau_norm: float,
        layout: FrontierLayout | None = None,
    ) -> None:
        structure = qte.cost_structure()
        if structure is None:
            raise ValueError("LockstepFrontier needs a unit-cost QTE")
        self.space = space
        self.qte = qte
        self.unit_cost_ms, self.overhead_ms = structure
        #: Budget the q-network's state encoding normalizes against (the
        #: agent's training budget; per-request deadlines live in ``taus``).
        self.tau_norm = tau_norm

        k = len(queries)
        n = len(space)
        self.queries = list(queries)
        self.taus = np.asarray(taus, dtype=np.float64)
        self.rewritten = list(rewritten)
        self.caches = [SelectivityCache() for _ in range(k)]

        # Per-request local column indexing (first-occurrence order) and the
        # required-attribute tensor R[i, j, c]: does option j of request i
        # need the selectivity of local column c?  Workload-only, so a
        # caller may pass a prebuilt (epoch-carried) layout.
        if layout is None:
            layout = FrontierLayout.build(queries, self.rewritten, n)
        self.columns = layout.columns
        self.predicate_of = layout.predicate_of
        self.required = layout.required
        self.collected = np.zeros((k, self.required.shape[2]), dtype=bool)
        self.elapsed = np.zeros(k, dtype=np.float64)
        # Initial estimation costs against the empty per-request caches:
        # C0_ij = overhead + unit × |required attributes of option j|.
        self.costs = self.overhead_ms + self.unit_cost_ms * self.required.sum(
            axis=2
        ).astype(np.float64)
        self.times = np.zeros((k, n), dtype=np.float64)
        self.explored = np.zeros((k, n), dtype=bool)
        self.n_explored = np.zeros(k, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.queries)

    # ------------------------------------------------------------------
    # Per-wave steps (composed by the planner and the trainer)
    # ------------------------------------------------------------------
    def state_matrix(self, active: np.ndarray) -> np.ndarray:
        """Stacked network inputs, bit-identical to per-state ``vector()``."""
        n = self.times.shape[1]
        tau_norm = self.tau_norm
        out = np.empty((len(active), 1 + 2 * n), dtype=np.float64)
        out[:, 0] = np.minimum(self.elapsed[active] / tau_norm, TIME_CLIP_BUDGETS)
        out[:, 1 : 1 + n] = self.costs[active]
        out[:, 1 + n :] = self.times[active]
        np.divide(out[:, 1:], tau_norm, out=out[:, 1:])
        np.clip(out[:, 1:], 0.0, TIME_CLIP_BUDGETS, out=out[:, 1:])
        return out.astype(np.float32)

    def greedy_actions(self, active: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Highest-q unexplored option per active row (Algorithm 2 line 5)."""
        return np.where(self.explored[active], -np.inf, q).argmax(axis=1)

    def remaining(self, index: int) -> np.ndarray:
        """Unexplored option indices of one request (epsilon-greedy draws)."""
        return (~self.explored[index]).nonzero()[0]

    def gather_probes(self, active: np.ndarray, actions: np.ndarray) -> list:
        """The frontier's uncollected selectivity probes for these actions.

        Handing the pooled list to :meth:`QueryTimeEstimator.collect_batch`
        turns one sample count per probe into one fused sweep per
        attribute; the fused trainer pools probes across *candidates* too.
        """
        missing = self.required[active, actions] & ~self.collected[active]
        # argwhere walks rows in order, columns within each row ascending —
        # the same probe order as a per-row nonzero loop.
        return [
            self.predicate_of[active[row]][self.columns[active[row]][ci]]
            for row, ci in np.argwhere(missing)
        ]

    def gather_probe_waves(
        self, active: np.ndarray, actions: np.ndarray
    ) -> list[tuple[SelectQuery, list]]:
        """One ``(chosen rewritten query, uncollected probes)`` pair per
        active row — the estimations :meth:`transition` is about to run.

        Rows with no uncollected probes are included with an empty probe
        list: an estimator that resolves a true execution time per estimate
        (the accurate QTE) needs every row of the wave, not just the ones
        with selectivity work.  Flattening the probes in row order
        reproduces :meth:`gather_probes` exactly.
        """
        missing = self.required[active, actions] & ~self.collected[active]
        rows = active.tolist()
        wave: list[tuple[SelectQuery, list]] = [
            (self.rewritten[i][j], []) for i, j in zip(rows, actions.tolist())
        ]
        # Row-major, as in gather_probes: columns ascend within each row.
        for pos, ci in np.argwhere(missing).tolist():
            i = rows[pos]
            wave[pos][1].append(self.predicate_of[i][self.columns[i][ci]])
        return wave

    def transition(self, active: np.ndarray, actions: np.ndarray) -> None:
        """Estimate the chosen options and apply the paper's T function."""
        # The QTE estimate is the only remaining per-request step.
        outcomes = [
            self.qte.estimate(self.rewritten[i][j], self.caches[i])
            for i, j in zip(active, actions)
        ]
        step_costs = np.fromiter(
            (outcome.cost_ms for outcome in outcomes),
            dtype=np.float64,
            count=len(outcomes),
        )
        self.elapsed[active] += step_costs
        self.times[active, actions] = [o.estimated_ms for o in outcomes]
        self.costs[active, actions] = step_costs
        self.explored[active, actions] = True
        self.collected[active] |= self.required[active, actions]
        self.n_explored[active] += 1
        counts = (
            self.required[active] & ~self.collected[active][:, None, :]
        ).sum(axis=2)
        self.costs[active] = np.where(
            self.explored[active],
            self.costs[active],
            self.overhead_ms + self.unit_cost_ms * counts,
        )

    def termination(
        self, active: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Algorithm 2 checks: (viable, timeout, exhausted,
        fallback), where ``fallback`` is the fastest-estimated explored
        option per row (the timeout/exhausted decision)."""
        elapsed = self.elapsed[active]
        taus = self.taus[active]
        viable = elapsed + self.times[active, actions] <= taus
        timeout = elapsed >= taus
        exhausted = self.explored[active].all(axis=1)
        fallback = np.where(self.explored[active], self.times[active], np.inf).argmin(
            axis=1
        )
        return viable, timeout, exhausted, fallback
