"""The MDP kernel: episodes of Section 4.1 as stacked matrices.

A :class:`LockstepFrontier` holds the state ``s = (E, C, T)`` of a batch of
requests, one matrix row per request — ``elapsed`` (E), ``costs`` (C),
``times`` (T), ``explored`` — and is the only place the MDP steps.  Two
stages compose it:

* the **planner** (:meth:`repro.core.rewriter.MDPQueryRewriter.
  rewrite_batch`) runs Algorithm 2 greedily over a whole request frontier;
  a single request's :meth:`~repro.core.rewriter.MDPQueryRewriter.plan` is
  a one-query frontier;
* the **trainer** (:meth:`repro.core.trainer.DQNTrainer.
  run_episodes_lockstep`) runs Algorithm 1's epsilon-greedy episodes as
  waves, recording replay transitions from the same matrices; a sequential
  episode (:meth:`~repro.core.trainer.DQNTrainer.run_episode`) is a
  one-query frontier.

The frontier plans on the options' hint sets: a rewritten query (RQ) is
built only when the agent explores its option (:meth:`rewritten`, kept for
the frontier's lifetime), and the decision takes that same object.  Every
per-step transition except the QTE estimate itself runs as one numpy
operation over the active frontier:

* action scoring: one row-stable q-network pass over
  :meth:`state_matrix` + masked argmax (:meth:`greedy_actions`);
* selectivity collection: one fused :meth:`~repro.qte.QueryTimeEstimator.
  collect_batch` pass over the frontier's uncollected probes
  (:meth:`gather_probes`);
* the transition (:meth:`transition`): E advances by the estimate's actual
  cost Ĉ_i, T_i is filled, and every unexplored option's C_j is re-priced
  as ``overhead + unit × missing`` through a boolean (request, option,
  column) required-attribute tensor, read off the space's hint sets — the
  paper's "estimating RQ1 changes the costs for estimating RQ5 and RQ7"
  effect (Figure 7);
* termination (:meth:`termination`): the last estimate is potentially
  viable (E + T(a) ≤ tau), the budget is exhausted (E ≥ tau), or no
  options remain; the latter two decide the fastest estimated option
  (masked argmin).

Rows never interact and every kernel is row-stable, so a row's decisions
and virtual times do not depend on which other requests share its frontier
— the property ``tests/core/test_frontier_reference.py`` pins against the
frozen object episode in ``tests/core/_reference.py``.  The estimator must
declare its unit-cost :meth:`~repro.qte.QueryTimeEstimator.cost_structure`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..db import Database, SelectQuery
from ..qte import QueryTimeEstimator, SelectivityCache
from .options import RewriteOptionSpace

#: Estimated times are clipped at this many budgets in the network input,
#: so a catastrophically slow RQ does not saturate the features.
TIME_CLIP_BUDGETS = 5.0

#: Where a request's planning resumes: the elapsed planning time and the
#: selectivities already collected (stage two of the two-stage rewriter
#: starts where stage one stopped, Figure 11).
StartState = tuple[float, SelectivityCache]


def state_size(n_options: int) -> int:
    """Network input width: the encoding ``[E, C_1..C_n, T_1..T_n]``."""
    return 1 + 2 * n_options


class LockstepFrontier:
    """Stacked per-request MDP state for one batch of queries."""

    def __init__(
        self,
        space: RewriteOptionSpace,
        qte: QueryTimeEstimator,
        queries: Sequence[SelectQuery],
        taus: Sequence[float],
        database: Database,
        tau_norm: float,
        starts: Sequence[StartState | None] | None = None,
        update_sibling_costs: bool = True,
    ) -> None:
        self.space = space
        self.qte = qte
        #: The catalog rewritten queries are built against.
        self.database = database
        #: Budget the q-network's state encoding normalizes against (the
        #: agent's training budget; per-request deadlines live in ``taus``).
        self.tau_norm = tau_norm
        #: Ablation switch: when False, the estimation costs C_j of
        #: unexplored options are NOT re-priced after each step — the agent
        #: loses the paper's Figure 7 shared-selectivity signal.
        self.update_sibling_costs = update_sibling_costs

        k = len(queries)
        n = len(space)
        self.queries = list(queries)
        self.taus = np.asarray(taus, dtype=np.float64)
        self._rewritten: dict[tuple[int, int], SelectQuery] = {}

        # Per-request local column indexing (first-occurrence order) and the
        # required-attribute tensor R[i, j, c]: does option j of request i
        # need the selectivity of local column c?  An RQ hints exactly the
        # query's filter columns in its option's hint set (RewriteOption.
        # build), so R is read off the space without building any RQ.
        self.columns: list[list[str]] = []
        self.predicate_of: list[dict[str, object]] = []
        for query in self.queries:
            columns: list[str] = []
            by_column: dict[str, object] = {}
            for predicate in query.predicates:
                if predicate.column not in by_column:
                    columns.append(predicate.column)
                by_column[predicate.column] = predicate
            self.columns.append(columns)
            self.predicate_of.append(by_column)
        m = max((len(columns) for columns in self.columns), default=0)
        self.required = np.zeros((k, n, max(m, 1)), dtype=bool)
        hinted = [option.hint_set.index_on for option in space]
        for i, columns in enumerate(self.columns):
            self.required[i, :, : len(columns)] = [
                [column in index_on for column in columns] for index_on in hinted
            ]

        # The paper's initial state (0, C_1..C_n, 0..0), or a start state's
        # elapsed time and (copied) selectivity cache.
        self.elapsed = np.zeros(k, dtype=np.float64)
        self.caches = [SelectivityCache() for _ in range(k)]
        self.collected = np.zeros((k, self.required.shape[2]), dtype=bool)
        for i, start in enumerate(starts or ()):
            if start is None:
                continue
            self.elapsed[i], cache = start
            for attribute, selectivity in cache.collected.items():
                self.caches[i].put(attribute, selectivity)
            for ci, column in enumerate(self.columns[i]):
                self.collected[i, ci] = cache.has(column)
        self.costs = self._priced(np.arange(k))
        self.times = np.zeros((k, n), dtype=np.float64)
        self.explored = np.zeros((k, n), dtype=bool)
        self.n_explored = np.zeros(k, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.queries)

    def rewritten(self, index: int, option: int) -> SelectQuery:
        """Option ``option`` applied to request ``index``: built the first
        time the row explores it, then kept for the frontier's lifetime."""
        key = (index, option)
        rewritten = self._rewritten.get(key)
        if rewritten is None:
            rewritten = self.space.build(self.queries[index], self.database, option)
            self._rewritten[key] = rewritten
        return rewritten

    # ------------------------------------------------------------------
    # Per-wave steps (composed by the planner and the trainer)
    # ------------------------------------------------------------------
    def state_matrix(self, active: np.ndarray) -> np.ndarray:
        """Network inputs ``[E, C_1..C_n, T_1..T_n] / tau``, clipped."""
        n = self.times.shape[1]
        tau_norm = self.tau_norm
        out = np.empty((len(active), state_size(n)), dtype=np.float64)
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
            (self.rewritten(i, j), []) for i, j in zip(rows, actions.tolist())
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
            self.qte.estimate(self.rewritten(i, j), self.caches[i])
            for i, j in zip(active.tolist(), actions.tolist())
        ]
        step_costs = np.fromiter(
            (outcome.cost_ms for outcome in outcomes),
            dtype=np.float64,
            count=len(outcomes),
        )
        self.elapsed[active] += step_costs
        self.times[active, actions] = [o.estimated_ms for o in outcomes]
        # The actual cost replaces the prediction for the explored option.
        self.costs[active, actions] = step_costs
        self.explored[active, actions] = True
        self.collected[active] |= self.required[active, actions]
        self.n_explored[active] += 1
        if self.update_sibling_costs:
            self.costs[active] = np.where(
                self.explored[active], self.costs[active], self._priced(active)
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

    def _priced(self, rows: np.ndarray) -> np.ndarray:
        """``overhead + unit × |uncollected required attributes|`` for every
        option of ``rows`` against their current caches."""
        counts = (self.required[rows] & ~self.collected[rows][:, None, :]).sum(axis=2)
        return self.qte.estimation_cost_ms(counts.astype(np.float64))
