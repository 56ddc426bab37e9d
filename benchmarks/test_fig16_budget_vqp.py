"""Figure 16: VQP across time budgets (0.25s / 0.75s / 1.0s).
Benchmarks one MDP step (QTE call + state transition) on a one-query
frontier."""

import numpy as np
import pytest
from _bench_utils import SCALE, SEED, bench_rounds, emit

from repro.core.frontier import LockstepFrontier
from repro.experiments import (
    accurate_qte,
    render_metric_table,
    run_fig16,
    save_json,
    twitter_setup,
)


@pytest.mark.parametrize("tau_ms", (250.0, 750.0, 1_000.0))
def test_fig16_budget_vqp(benchmark, tau_ms):
    result = run_fig16(tau_ms, SCALE, seed=SEED)
    emit(render_metric_table(result, "vqp"))
    save_json(result)

    setup = twitter_setup(SCALE, tau_ms=tau_ms, seed=SEED)
    qte = accurate_qte(setup)
    query = setup.split.evaluation[0]

    def one_step():
        frontier = LockstepFrontier(
            space=setup.space,
            qte=qte,
            queries=[query],
            taus=[tau_ms],
            rewritten=[setup.space.build_all(query, setup.database)],
            tau_norm=tau_ms,
        )
        frontier.transition(np.arange(1), np.array([3]))

    benchmark.pedantic(one_step, rounds=bench_rounds(), iterations=1)
    assert result.metadata["tau_ms"] == tau_ms
