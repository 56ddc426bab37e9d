"""Turn a run's windows into the metrics ``BENCHMARK.json`` names, and
check the run's outputs against a twin built from the same seed."""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.qte import SelectivityCache

from .driver import ROUTER_COUNTERS, SHARD_COUNTERS, Window, percentile
from .spec import QTE_SAMPLE_REQUESTS, Workload
from .stacks import Stack
from .tracing import layer_totals


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, window: Window, setup_s: float) -> dict[str, float]:
    """The metrics a dashboard user and the host's operator would see."""
    latencies_ms = [s * 1e3 for s in window.latencies_s]
    within_tau = sum(
        1 for ms, tau in zip(latencies_ms, window.taus_ms) if ms <= tau
    )
    viable_totals = [total for viable, total in window.virtual if viable]
    metrics = {
        "setup_s": setup_s,
        "vqp": _share(len(viable_totals), window.virtual_attempted),
        "aqrt_ms": float(np.mean(viable_totals)) if viable_totals else 0.0,
        "wall_vqp": _share(within_tau, window.attempted),
        "peak_rss_mb": peak_rss_mb(),
    }
    if workload.loop == "closed":
        # The quiet-side quartile over the timed slices.  This host slows
        # by 20-40 % for seconds at a time; interference only ever slows a
        # slice, so the quartile of the fast slices is what the code can
        # do, and it holds until three slices in four are hit.
        metrics["throughput_rps"] = _quartiles(window.slice_rps)[2]
        metrics["wall_ms_p50"] = _quartiles(window.slice_p50_ms)[0]
        metrics["wall_ms_p95"] = _quartiles(window.slice_p95_ms)[0]
    else:
        # Latency where a user notices it first (the lowest rate, over its
        # windows of 200 arrivals), capacity where the host runs out of it
        # (the highest).
        first, last = window.phases["rate_1"], window.phases[f"rate_{len(workload.rates_rps)}"]
        metrics["throughput_rps"] = last["completions_rps"]
        metrics["wall_ms_p50"] = _quartiles(first["window_p50_ms"])[0]
        metrics["wall_ms_p95"] = _quartiles(first["window_p95_ms"])[0]
    return metrics


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def per_layer(
    workload: Workload,
    stack: Stack,
    untraced: Window,
    traced: Window,
    spans: list[dict],
    n_explored: int,
    extras: dict[str, float],
) -> dict[str, float]:
    """Layer metrics over the *traced* window (its slices / half-phases).

    ``report()`` counters, outcome counters and spans all cover the same
    requests, so a stage's seconds and the spans inside it compare.
    """
    counters = traced.counters
    layers = layer_totals(spans)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    def work(name: str) -> float:
        return layers.get(name, {}).get("n", 0)

    stage_s = sum(counters[f"stage.{s}"] for s in ("resolve", "schedule", "plan", "execute"))
    metrics: dict[str, float] = {
        "serving.stage.resolve_s": counters["stage.resolve"],
        "serving.stage.schedule_s": counters["stage.schedule"],
        "serving.stage.plan_s": counters["stage.plan"],
        "serving.stage.execute_s": counters["stage.execute"],
        "serving.overhead_s": max(0.0, traced.wall_s - stage_s - traced.append_s),
        "serving.decision_cache.hit_rate": _share(
            counters["decision.hits"],
            counters["decision.hits"] + counters["decision.misses"],
        ),
        "viz.translate_s": self_s("viz.translate"),
        "viz.translate_calls": calls("viz.translate"),
        "serving.scheduler.order_s": self_s("serving.scheduler.order"),
        "serving.admission.admit_s": self_s("serving.admission.admit"),
        "serving.admission.calls": calls("serving.admission.admit"),
        "serving.n_shed": counters["n_shed"],
        "serving.n_tau_degraded": counters["n_tau_degraded"],
        "serving.async.queue_peak_depth": counters["queue_peak_depth"],
        "serving.async.n_backpressure_waits": counters["n_backpressure_waits"],
        "serving.async.n_overlapped_batches": counters["n_overlapped_batches"],
        "serving.async.overlap_plan_s": counters["overlap_plan_s"],
        "core.rewriter.plan_s": total_s("core.rewriter.plan"),
        "core.rewriter.plan_calls": calls("core.rewriter.plan"),
        "core.rewriter.queries_planned": work("core.rewriter.plan"),
        "core.rewriter.self_s": self_s("core.rewriter.plan"),
        "core.rewriter.explored_share": _share(
            n_explored,
            work("core.rewriter.plan") * len(stack.maliva.space),
        ),
        "core.qnetwork.forward_s": self_s("core.qnetwork.forward"),
        "core.qnetwork.forward_calls": calls("core.qnetwork.forward"),
        "core.qnetwork.rows": work("core.qnetwork.forward"),
        "qte.collect_s": self_s("qte.collect"),
        "qte.collect_calls": calls("qte.collect"),
        "qte.probes": work("qte.collect"),
        "qte.estimate_s": self_s("qte.estimate") + self_s("qte.predict_costs"),
        "qte.cache.hit_rate": _share(
            counters["qte.hits"], counters["qte.hits"] + counters["qte.misses"]
        ),
        "db.execute_s": self_s("db.execute"),
        "db.execute_calls": calls("db.execute"),
        "db.queries_executed": work("db.execute"),
        "db.sharing.shared_scan_share": _share(
            counters["sharing.shared_scans"],
            counters["sharing.shared_scans"] + counters["sharing.n_distinct_scans"],
        ),
        "db.sharing.shared_bin_share": _share(
            counters["sharing.shared_bins"], counters["sharing.n_bin_results"]
        ),
        "db.sharing.probes_computed": counters["sharing.n_probes_computed"],
        "db.caches.hit_rate": _share(
            counters["engine.hits"], counters["engine.hits"] + counters["engine.misses"]
        ),
        "db.caches.plan_hit_rate": _share(
            counters["engine.plan_hits"],
            counters["engine.plan_hits"] + counters["engine.plan_misses"],
        ),
        "db.work.seq_rows_per_req": _share(traced.work["seq_rows"], traced.work["n"]),
        "db.work.index_entries_per_req": _share(
            traced.work["index_entries"], traced.work["n"]
        ),
        "db.work.fetched_rows_per_req": _share(
            traced.work["fetched_rows"], traced.work["n"]
        ),
        "db.append_s": traced.append_s,
        "db.append_calls": traced.append_calls,
        "db.post_append_chunk_ms_p50": percentile(traced.post_append_chunk_ms, 50.0),
        "backends.ingest_s": stack.timers.get("backends.ingest_s", 0.0),
        "backends.compile_s": self_s("backends.compile"),
        "backends.execute_s": self_s("backends.execute"),
        "backends.execute_calls": counters["backend.n_queries"],
        "backends.execute_ms_p50": percentile(traced.backend_ms, 50.0),
        "backends.execute_ms_p95": percentile(traced.backend_ms, 95.0),
        "backends.rows_returned_per_req": _share(
            counters["backend.rows_returned"], counters["backend.n_queries"]
        ),
        "datasets.build_s": stack.timers["datasets.build_s"],
        "core.trainer.train_s": stack.timers["core.trainer.train_s"],
        "qte.fit_s": stack.timers["qte.fit_s"],
        "runtime.gc_collect_s": traced.gc_collect_s,
        "wall_ms_p99": percentile([s * 1e3 for s in traced.latencies_s], 99.0),
        "failed_share": _share(traced.failed, traced.attempted),
    }

    # -- fleets ---------------------------------------------------------
    shard_busy = [v for k, v in counters.items() if k.startswith("shards.busy.")]
    shard_plan = [v for k, v in counters.items() if k.startswith("shards.plan_busy.")]
    busiest = max(shard_busy, default=0.0)
    metrics.update(
        {
            "serving.sharded.spawn_s": stack.timers.get("serving.sharded.spawn_s", 0.0),
            "serving.sharded.worker_busy_s": sum(shard_busy) + sum(shard_plan),
            "serving.sharded.worker_busy_max_s": busiest,
            "serving.sharded.busy_skew": _share(
                busiest, sum(shard_busy) / len(shard_busy) if shard_busy else 0.0
            ),
            # Pickle + pipe transit + router idle + merge: what the execute
            # stage cost beyond its busiest worker.
            "serving.sharded.rpc_overhead_s": (
                max(0.0, counters["stage.execute"] - busiest) if shard_busy else 0.0
            ),
            **{
                f"serving.sharded.{name}": counters[f"shards.{name}"]
                for name in SHARD_COUNTERS
            },
        }
    )
    router_busy = [v for k, v in counters.items() if k.startswith("routers.busy.")]
    metrics.update(
        {
            "serving.replicated.spawn_s": stack.timers.get(
                "serving.replicated.spawn_s", 0.0
            ),
            "serving.replicated.router_busy_s": sum(router_busy),
            "serving.replicated.dispatch_overhead_s": (
                max(0.0, traced.wall_s - max(router_busy)) if router_busy else 0.0
            ),
            **{
                f"serving.replicated.{name}": counters[f"routers.{name}"]
                for name in (*ROUTER_COUNTERS, "journal_high_water")
            },
        }
    )

    # -- open loop ------------------------------------------------------
    metrics["arrivals.sched_lag_ms_p95"] = percentile(
        [s * 1e3 for s in traced.sched_lag_s], 95.0
    )
    max_rate = 0.0
    for number in range(1, 5):
        phase = traced.phases.get(f"rate_{number}")
        metrics[f"arrivals.p95_ms.rate_{number}"] = phase["p95_ms"] if phase else 0.0
        metrics[f"arrivals.failed_share.rate_{number}"] = (
            phase["failed_share"] if phase else 0.0
        )
        if phase and phase["meets_limit"]:
            max_rate = max(max_rate, phase["rate_rps"])
    metrics["max_rate_rps"] = max_rate

    # -- the trace itself -----------------------------------------------
    metrics["trace.self_time_share"] = _share(
        sum(layer["self_s"] for layer in layers.values()), traced.wall_s
    )
    if workload.loop == "closed":
        cost = _share(
            _quartiles(traced.slice_rps)[2], _quartiles(untraced.slice_rps)[2]
        )
    else:
        # The rate is fixed by the schedule, so compare what a request
        # costs the service: stage seconds per answered request.
        def busy(window: Window) -> float:
            stages = sum(v for k, v in window.counters.items() if k.startswith("stage."))
            return _share(stages, len(window.latencies_s))

        cost = _share(busy(untraced), busy(traced))
    metrics["trace.overhead_share"] = 1.0 - cost
    metrics.update(extras)
    return metrics


# ----------------------------------------------------------------------
# Output check and the untimed QTE sample (both on the twin)
# ----------------------------------------------------------------------
def _same_result(measured, reference) -> bool:
    if reference.row_ids is not None:
        return measured.row_ids is not None and np.array_equal(
            measured.row_ids, reference.row_ids
        )
    return measured.bins == reference.bins


def count_mismatches(stack: Stack, twin: Stack, pairs: list) -> int:
    """Outcomes of ``stack`` that differ from sequential ``Maliva.answer()``
    on ``twin``.

    Simulated stacks must match bit for bit (option, virtual times, row
    ids / bins).  On SQLite the execution time is a measurement, so rows /
    bins must equal the in-memory engine's and the option must come from
    the pruned space.
    """
    real_engine = stack.backend is not None
    labels = {option.label() for option in stack.maliva.space.options}
    mismatches = 0
    for request, outcome in pairs:
        reference = twin.maliva.answer(twin.to_query(request), tau_ms=outcome.tau_ms)
        same = (
            outcome.option_label == reference.option_label
            and outcome.planning_ms == reference.planning_ms
            and _same_result(outcome.result, reference.result)
        )
        if real_engine:
            same = same and outcome.option_label in labels
        else:
            same = same and outcome.execution_ms == reference.execution_ms
        mismatches += not same
    return mismatches


def qte_sample(stack: Stack, twin: Stack, window: Window) -> dict[str, float]:
    """QTE estimate vs actual, and the no-rewrite baseline, on a sample.

    Untimed and on the twin, so the measured service's memos stay as the
    traffic left them.
    """
    pairs = window.sample[:QTE_SAMPLE_REQUESTS]
    ratios = []
    baseline_viable = 0
    for request, outcome in pairs:
        estimate = twin.maliva.qte.estimate(outcome.rewritten, SelectivityCache())
        if outcome.execution_ms > 0:
            ratios.append(estimate.estimated_ms / outcome.execution_ms)
        original = outcome.original.without_hints()
        if stack.backend is not None:
            baseline_ms = stack.backend.execute(original).wall_ms
        else:
            baseline_ms = twin.maliva.database.execute(original).execution_ms
        baseline_viable += baseline_ms <= outcome.tau_ms
    return {
        "qte.est_over_actual_p50": percentile(ratios, 50.0),
        "qte.abs_rel_err_p90": percentile([abs(r - 1.0) for r in ratios], 90.0),
        "core.vqp_no_rewrite": _share(baseline_viable, len(pairs)),
    }
