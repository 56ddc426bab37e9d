"""A shed request is a failed request: it stays in every denominator."""

from __future__ import annotations

from dataclasses import replace

from perfbench.driver import MISS_LATENCY_MS
from perfbench.runner import run_workload
from perfbench.spec import BY_NAME


def test_overload_counts_shed_requests_as_failures_and_misses():
    # One second at several times what the smoke-size service can answer,
    # with a watermark a few dozen requests deep: most arrivals are shed.
    overload = replace(
        BY_NAME["arrivals_open"].scaled(0.05),
        rates_rps=(6_000.0,),
        phase_shares=(1.0,),
        block_s=1.0,
        load_watermark_ms=2_000.0,
    )
    result = run_workload(overload, seed=1, seconds=1.0, trace=True, setup_reps=1)

    phase = result["phases"]["rate_1"]
    assert phase["failed"] > 0.05 * phase["attempted"]
    assert result["failed"] >= phase["failed"]
    assert result["per_layer"]["serving.n_shed"] > 0

    # Failures stay in the denominators ...
    traced = result["phases_traced"]["rate_1"]
    assert result["per_layer"]["failed_share"] == traced["failed"] / traced["attempted"]
    assert result["per_layer"]["arrivals.failed_share.rate_1"] == traced["failed_share"]
    end_to_end = result["end_to_end"]
    assert end_to_end["wall_vqp"] <= 1.0 - phase["failed_share"] + 1e-12
    assert end_to_end["vqp"] <= 1.0 - phase["failed_share"] + 1e-12
    # ... and miss the latency limit: with over 5 % shed, p95 is a miss.
    assert end_to_end["wall_ms_p95"] == MISS_LATENCY_MS  # in every window
    assert not phase["meets_limit"]
    assert result["per_layer"]["max_rate_rps"] == 0.0
    # The generator reports how late it ran.
    assert result["per_layer"]["arrivals.sched_lag_ms_p95"] > 0.0
