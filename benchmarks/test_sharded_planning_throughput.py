"""Scattered planning throughput: worker planner replicas vs the router.

Builds twin trained middlewares (sampling QTE — worker planning is fully
local, no router RPC on the hot path) and times the serving pipeline's
*plan stage* cold, twice: once with the single-engine service (the
router's lockstep ``rewrite_batch``) and once with the sharded service
scattering the decision-cache miss leaders round-robin across worker
*processes*, each planning its chunk on a
:class:`~repro.serving.planner_replica.PlannerReplica`.  Decisions must
be bit-identical; only the middleware host gets faster.

Writes the ``sharded_planning`` section of ``BENCH_planning.json``.  The
>1.5x cold speedup bar is asserted at non-tiny scale on hosts with at
least four CPUs (the benchmark then runs four shards); on smaller hosts
scatter wall time is transport + serialized worker compute, so the run
records the scatter-overhead ratio instead — the number a capacity plan
needs for the single-core worst case.
"""

import json
import os
import time

from _bench_utils import SCALE, SEED, bench_file, build_twitter_serving_setup, emit

from repro.serving import ShardedMalivaService
from repro.serving.planner_replica import PlannerSync
from repro.viz import TWITTER_TRANSLATOR

TINY = SCALE.name == "tiny"
N_TWEETS = 4_000 if TINY else 40_000
SAMPLE_FRACTION = 0.2
N_QUERIES = 48 if TINY else 320
TAU_MS = 60.0
UNIT_COST_MS = 10.0
ROUNDS = 2 if TINY else 3
CPU_COUNT = os.cpu_count() or 1
N_SHARDS = 4 if CPU_COUNT >= 4 else 2
SPEEDUP_BAR = 1.5


def _build():
    maliva, _stream, _queries, _train = build_twitter_serving_setup(
        n_tweets=N_TWEETS,
        n_users=N_TWEETS // 40,
        sample_fraction=SAMPLE_FRACTION,
        qte="sampling",
        unit_cost_ms=UNIT_COST_MS,
        tau_ms=TAU_MS,
        max_epochs=4,
        n_sessions=4,
        steps_per_session=4,
    )
    return maliva


def _resolved_batch(maliva):
    from tests.conftest import random_query_workload

    queries = random_query_workload(
        maliva.database, seed=SEED + 211, n=N_QUERIES, duplicate_fraction=0.0
    )
    return [(query, TAU_MS) for query in queries]


def _cold_router(service):
    service.invalidate()
    service.maliva.database.clear_caches()


def _cold_workers(sharded):
    # An empty sync is a pure cold reset: the replica drops its engine
    # caches, QTE memos, and rewrite build cache (PlannerReplica.apply_sync).
    for handle in sharded._handles:
        handle.sync_planner(PlannerSync())


def _best_of(rounds, run):
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def test_scattered_planning_vs_router(benchmark):
    single_maliva = _build()
    sharded_maliva = _build()
    resolved = _resolved_batch(single_maliva)
    single = single_maliva.service(translator=TWITTER_TRANSLATOR)
    sharded = ShardedMalivaService(
        sharded_maliva,
        translator=TWITTER_TRANSLATOR,
        n_shards=N_SHARDS,
        shard_by="rows",
        processes=True,
    )
    try:

        def router_plan():
            _cold_router(single)
            return single._plan_stage(list(resolved))

        def scattered_plan():
            _cold_router(sharded)
            _cold_workers(sharded)
            return sharded._plan_stage(list(resolved))

        router_s, (router_decisions, _) = _best_of(ROUNDS, router_plan)
        benchmark.pedantic(scattered_plan, rounds=1, iterations=1)
        scatter_s, (scattered_decisions, _) = _best_of(ROUNDS, scattered_plan)
        shard_report = sharded.stats.to_dict()["shards"]
    finally:
        sharded.close()

    # The twin-planning invariant, asserted at every scale.
    assert len(scattered_decisions) == len(router_decisions) == len(resolved)
    for left, right in zip(router_decisions, scattered_decisions):
        assert left.option_index == right.option_index
        assert left.option_label == right.option_label
        assert left.planning_ms == right.planning_ms
        assert left.reason == right.reason
        assert left.n_explored == right.n_explored
        assert left.rewritten.key() == right.rewritten.key()
    assert shard_report["n_plan_scattered"] > 0
    assert shard_report["n_plan_fallback"] == 0

    router_qps = len(resolved) / router_s
    scattered_qps = len(resolved) / scatter_s
    speedup = router_s / scatter_s

    bench_path = bench_file("BENCH_planning.json")
    payload = json.loads(bench_path.read_text()) if bench_path.is_file() else {}
    payload["sharded_planning"] = {
        "n_shards": N_SHARDS,
        "processes": True,
        "cpu_count": CPU_COUNT,
        "n_requests": len(resolved),
        "n_tweets": N_TWEETS,
        "scale": SCALE.name,
        "cold_router_plans_per_s": router_qps,
        "cold_scattered_plans_per_s": scattered_qps,
        "cold_speedup_vs_router": speedup,
        # On hosts that serialize the workers, the interesting number is
        # how much scatter overhead costs, not a parallel speedup.
        "scatter_overhead_ratio": scatter_s / router_s,
        "bit_identical_decisions_and_virtual_times": True,
    }
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    emit(
        f"scattered planning ({len(resolved)}-request cold batch, "
        f"{N_SHARDS} worker processes, {CPU_COUNT} cpus)\n"
        f"  router lockstep : {router_qps:10.1f} plans/s\n"
        f"  worker scattered: {scattered_qps:10.1f} plans/s  ({speedup:.2f}x)\n"
        f"  decisions       : bit-identical, virtual planning times unchanged"
    )
    if not TINY and CPU_COUNT >= 4:
        assert speedup > SPEEDUP_BAR, (
            f"scattered cold planning speedup {speedup:.2f}x below the "
            f"{SPEEDUP_BAR}x bar on a {CPU_COUNT}-cpu host"
        )
