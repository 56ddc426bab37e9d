"""Figure 17: AQRT across time budgets (same runs as Figure 16).
Benchmarks q-network inference over a full option space."""

import numpy as np
import pytest
from _bench_utils import SCALE, SEED, bench_rounds, emit

from repro.core import QNetwork
from repro.core.frontier import state_size
from repro.experiments import render_metric_table, run_fig17


@pytest.mark.parametrize("tau_ms", (250.0, 750.0, 1_000.0))
def test_fig17_budget_aqrt(benchmark, tau_ms):
    result = run_fig17(tau_ms, SCALE, seed=SEED)
    emit(render_metric_table(result, "aqrt_ms"))

    n_options = result.metadata["n_options"]
    network = QNetwork(state_size(n_options), n_options, seed=1)
    states = np.random.default_rng(2).random(
        (1, state_size(n_options))
    ).astype(np.float32)
    benchmark.pedantic(
        lambda: network.predict_rows(states), rounds=bench_rounds(), iterations=10
    )
    assert result.rows
