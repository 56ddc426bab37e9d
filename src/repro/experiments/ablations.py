"""Ablation studies for the design choices DESIGN.md calls out.

Three ablations probe *why* Maliva works:

* **Shared-selectivity cost updates** (Figure 7's transition effect): does
  re-pricing unexplored options after each estimate actually help the agent?
  We train one agent with the update and one without.
* **QTE unit cost** (the planning/execution balance): sweep the
  Accurate-QTE's per-selectivity cost and watch VQP fall as estimation gets
  more expensive relative to the budget.
* **Exploration schedule** (Algorithm 1's epsilon-greedy): compare the
  decayed epsilon schedule against pure exploitation from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core import DQNTrainer, TrainingConfig
from ..db import SelectQuery
from ..qte import AccurateQTE
from .config import ExperimentScale, get_scale
from .setups import DatasetSetup, twitter_setup


@dataclass
class AblationRow:
    """One ablation configuration and its evaluation metrics."""

    variant: str
    vqp: float
    avg_total_ms: float


@dataclass
class AblationResult:
    """A small named table of variant -> metrics."""

    name: str
    rows: list[AblationRow]

    def render(self) -> str:
        header = f"{'variant':<38} {'VQP':>8} {'avg total':>12}"
        lines = [f"Ablation: {self.name}", "", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.variant:<38} {row.vqp:7.1f}% {row.avg_total_ms:9.0f} ms"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rows": [vars(row) for row in self.rows],
        }


def _evaluate(
    trainer: DQNTrainer, queries: Sequence[SelectQuery]
) -> tuple[float, float]:
    """Greedy VQP and average total time over ``queries``."""
    viable = 0
    total = 0.0
    for query in queries:
        reward, ok = trainer.run_episode(query, epsilon=0.0, learn=False)
        viable += int(ok)
        # Recover the total time from the Eq. 1 reward: R = (tau - T)/tau.
        total += trainer.tau_ms * (1.0 - reward)
    n = max(1, len(queries))
    return 100.0 * viable / n, total / n


def _make_trainer(
    setup: DatasetSetup,
    seed: int,
    update_sibling_costs: bool = True,
    unit_cost_ms: float = 40.0,
    epsilon_start: float = 1.0,
) -> DQNTrainer:
    qte = AccurateQTE(setup.database, unit_cost_ms=unit_cost_ms)
    config = TrainingConfig(
        max_epochs=setup.scale.max_epochs,
        seed=seed,
        epsilon_start=epsilon_start,
    )
    return DQNTrainer(
        setup.database,
        qte,
        setup.space,
        setup.tau_ms,
        config=config,
        update_sibling_costs=update_sibling_costs,
    )


def run_ablation_cost_updates(
    scale: str | ExperimentScale = "small", seed: int = 0
) -> AblationResult:
    """With vs without the Figure 7 sibling-cost updates."""
    resolved = get_scale(scale)
    setup = twitter_setup(resolved, seed=seed)
    rows = []
    for variant, update in (
        ("with shared-selectivity updates", True),
        ("without (static C_i)", False),
    ):
        trainer = _make_trainer(setup, seed=seed + 5, update_sibling_costs=update)
        trainer.train(list(setup.split.train))
        vqp, avg_ms = _evaluate(trainer, list(setup.split.evaluation))
        rows.append(AblationRow(variant, vqp, avg_ms))
    return AblationResult("transition cost updates (Figure 7 effect)", rows)


def run_ablation_unit_cost(
    scale: str | ExperimentScale = "small",
    seed: int = 0,
    unit_costs_ms: Sequence[float] = (10.0, 40.0, 100.0, 200.0),
) -> AblationResult:
    """Sweep the oracle QTE's per-selectivity collection cost."""
    resolved = get_scale(scale)
    setup = twitter_setup(resolved, seed=seed)
    rows = []
    for unit_cost in unit_costs_ms:
        trainer = _make_trainer(setup, seed=seed + 5, unit_cost_ms=unit_cost)
        trainer.train(list(setup.split.train))
        vqp, avg_ms = _evaluate(trainer, list(setup.split.evaluation))
        rows.append(AblationRow(f"unit cost {unit_cost:g} ms", vqp, avg_ms))
    return AblationResult("QTE estimation cost vs budget", rows)


def run_ablation_exploration(
    scale: str | ExperimentScale = "small", seed: int = 0
) -> AblationResult:
    """Epsilon-greedy exploration vs pure exploitation during training."""
    resolved = get_scale(scale)
    setup = twitter_setup(resolved, seed=seed)
    rows = []
    for variant, eps_start in (
        ("epsilon-greedy (decayed from 1.0)", 1.0),
        ("pure exploitation (epsilon = 0.05)", 0.05),
    ):
        trainer = _make_trainer(setup, seed=seed + 5, epsilon_start=eps_start)
        trainer.train(list(setup.split.train))
        vqp, avg_ms = _evaluate(trainer, list(setup.split.evaluation))
        rows.append(AblationRow(variant, vqp, avg_ms))
    return AblationResult("exploration schedule (Algorithm 1)", rows)
