"""Experiment scales: how big each reproduction run is.

The paper runs on 100M-500M-row tables on AWS; this reproduction's virtual
clock decouples *measured* latencies from dataset size, so smaller tables
reproduce the same trade-offs faster.  Three presets:

* ``tiny`` — seconds-scale, used by the test suite,
* ``small`` — the default for the figure benchmarks (a few minutes end to end),
* ``medium`` — closer to the paper's workload sizes, for overnight runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by every experiment driver."""

    name: str
    twitter_rows: int
    twitter_users: int
    taxi_rows: int
    tpch_rows: int
    #: Queries generated per workload (before the 1/3 : 1/6 : 1/2 split).
    n_queries: int
    #: Training epochs cap for the DQN agent.
    max_epochs: int
    #: Hold-out validation candidates (paper trains several agents).
    n_candidates: int
    #: Thompson-sampling epochs for the Bao comparator.
    bao_epochs: int
    #: Training queries used to fit the sampling QTE's analytic model.
    qte_fit_queries: int
    #: Repetitions for learning-curve experiments (paper uses 10).
    learning_curve_repeats: int


TINY = ExperimentScale(
    name="tiny",
    twitter_rows=30_000,
    twitter_users=1_500,
    taxi_rows=30_000,
    tpch_rows=30_000,
    n_queries=60,
    max_epochs=6,
    n_candidates=1,
    bao_epochs=1,
    qte_fit_queries=10,
    learning_curve_repeats=2,
)

SMALL = ExperimentScale(
    name="small",
    twitter_rows=120_000,
    twitter_users=6_000,
    taxi_rows=150_000,
    tpch_rows=120_000,
    n_queries=300,
    max_epochs=12,
    n_candidates=1,
    bao_epochs=2,
    qte_fit_queries=40,
    learning_curve_repeats=3,
)

MEDIUM = ExperimentScale(
    name="medium",
    twitter_rows=250_000,
    twitter_users=12_000,
    taxi_rows=300_000,
    tpch_rows=250_000,
    n_queries=700,
    max_epochs=20,
    n_candidates=3,
    bao_epochs=3,
    qte_fit_queries=100,
    learning_curve_repeats=5,
)

_SCALES = {scale.name: scale for scale in (TINY, SMALL, MEDIUM)}


def get_scale(name: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale by name (accepts an already-built scale)."""
    if isinstance(name, ExperimentScale):
        return name
    if name not in _SCALES:
        raise WorkloadError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        )
    return _SCALES[name]
