"""Command-line interface for regenerating the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig12 --dataset twitter --scale tiny
    python -m repro.cli run table2 --scale small
    python -m repro.cli run fig16 --tau-ms 750 --scale tiny
    python -m repro.cli run ablation-unit-cost --scale tiny
    python -m repro.cli run all --scale tiny        # everything, in order
    python -m repro.cli train --dataset twitter --scale tiny --lockstep
    python -m repro.cli serve --sessions 8 --steps 8 --scale tiny

``train`` runs the offline training pipeline on one dataset setup —
optionally in lockstep wave mode (``--lockstep``) and with hold-out
candidate selection (``--candidates K``) — and prints the per-epoch
reward/viability curve plus epochs-per-second.  ``serve`` trains a
middleware and then drives interleaved multi-user exploration sessions
through the :mod:`repro.serving` layer, reporting wall-clock throughput,
virtual latency, and cache hit rates (cold engine vs warm cache).  Results
are printed as the paper's tables and saved as JSON under ``--save-dir``
(default ``results/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentResult,
    render_experiment,
    run_fig12,
    run_fig14,
    run_fig16,
    run_fig18,
    run_fig19a,
    run_fig19b,
    run_fig20,
    run_fig21,
    run_table1,
    run_table2,
    run_table3,
    save_json,
)
from .experiments.ablations import (
    run_ablation_cost_updates,
    run_ablation_exploration,
    run_ablation_unit_cost,
)

#: name -> (description, runner). Runners take the parsed args namespace.
_EXPERIMENTS = {
    "table1": ("dataset inventory", lambda a: run_table1(a.scale, a.seed)),
    "table2": ("difficulty distribution, 3 datasets", lambda a: run_table2(a.scale, a.seed)),
    "table3": ("16/32-option workload difficulty", lambda a: run_table3(a.scale, a.seed)),
    "fig12": ("VQP (and AQRT) main comparison", lambda a: run_fig12(a.dataset, a.scale, a.seed)),
    "fig14": ("effect of 16/32 rewrite options", lambda a: run_fig14(a.n_options, a.scale, a.seed)),
    "fig16": ("effect of the time budget", lambda a: run_fig16(a.tau_ms, a.scale, a.seed)),
    "fig18": ("join queries, 21 options", lambda a: run_fig18(a.scale, a.seed)),
    "fig19a": ("generalization to unseen join queries", lambda a: run_fig19a(a.scale, a.seed)),
    "fig19b": ("commercial database profile", lambda a: run_fig19b(a.scale, a.seed)),
    "fig20": ("quality-aware rewriting", lambda a: run_fig20(a.scale, a.seed)),
    "fig21": ("learning curves and training time", lambda a: run_fig21(a.scale, a.seed)),
    "ablation-cost-updates": (
        "with/without Figure 7 sibling-cost updates",
        lambda a: run_ablation_cost_updates(a.scale, a.seed),
    ),
    "ablation-unit-cost": (
        "sweep of the QTE estimation cost",
        lambda a: run_ablation_unit_cost(a.scale, a.seed),
    ),
    "ablation-exploration": (
        "epsilon-greedy vs pure exploitation",
        lambda a: run_ablation_exploration(a.scale, a.seed),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Maliva reproduction experiment runner"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS) + ["all"])
    run.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--dataset", default="twitter", choices=["twitter", "taxi", "tpch"])
    run.add_argument("--n-options", type=int, default=16, choices=[16, 32])
    run.add_argument("--tau-ms", type=float, default=250.0)
    run.add_argument("--save-dir", default="results")
    run.add_argument("--no-save", action="store_true")

    train = commands.add_parser(
        "train", help="train an MDP agent offline and report the learning curve"
    )
    train.add_argument("--dataset", default="twitter", choices=["twitter", "taxi", "tpch"])
    train.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--tau-ms", type=float, default=None,
                       help="time budget (default: the dataset's canonical budget)")
    train.add_argument("--qte", default="sampling", choices=["accurate", "sampling"])
    train.add_argument("--max-epochs", type=int, default=None,
                       help="epoch cap (default: the scale's setting)")
    train.add_argument(
        "--lockstep",
        action="store_true",
        help="wave-mode epochs: fused probes, batched terminal execution",
    )
    train.add_argument(
        "--candidates",
        type=int,
        default=1,
        help="hold-out candidates; >1 trains them fused and keeps the best",
    )
    train.add_argument("--save-dir", default="results")
    train.add_argument("--no-save", action="store_true")

    serve = commands.add_parser(
        "serve", help="drive interleaved user sessions through the serving layer"
    )
    serve.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--dataset",
        default="twitter",
        choices=["twitter", "taxi"],
        help=(
            "twitter serves exploration sessions; taxi replays the "
            "ops-dashboard widget sessions (examples/taxi_dashboard.py)"
        ),
    )
    serve.add_argument(
        "--backend",
        default="memory",
        choices=["memory", "sqlite", "duckdb"],
        help=(
            "execute stage: the in-memory simulated engine (virtual "
            "timing) or a real backend — compiled SQL, wall-clock timing, "
            "action space pruned to the BackendProfile's honored hints "
            "(single router/shard only)"
        ),
    )
    serve.add_argument("--sessions", type=int, default=8)
    serve.add_argument("--steps", type=int, default=8)
    serve.add_argument("--tau-ms", type=float, default=500.0)
    serve.add_argument("--qte", default="accurate", choices=["accurate", "sampling"])
    serve.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="micro-batch size for the staged pipeline (default: whole batch)",
    )
    serve.add_argument(
        "--scheduler",
        default="affinity",
        choices=["affinity", "fifo"],
        help="batch scheduling policy (session affinity vs arrival order)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the execute stage across N worker processes (1 = off)",
    )
    serve.add_argument(
        "--routers",
        type=int,
        default=1,
        help=(
            "replicate the router tier across N full replica processes "
            "with journaled failover and decision gossip (1 = off; "
            "mutually exclusive with --shards > 1)"
        ),
    )
    serve.add_argument(
        "--inline",
        action="store_true",
        help=(
            "run shard engines or router replicas in-process "
            "(debugging / single-core hosts)"
        ),
    )
    serve.add_argument(
        "--rpc-deadline-ms",
        type=float,
        default=10_000.0,
        help=(
            "base per-call deadline on worker RPCs; a worker silent past "
            "deadline + tau is declared dead (0 disables the deadline)"
        ),
    )
    serve.add_argument(
        "--max-respawns",
        type=int,
        default=3,
        help=(
            "respawn budget per shard slot or router replica before the "
            "circuit breaker retires it and the fleet rebalances"
        ),
    )
    serve.add_argument(
        "--admission",
        default="off",
        choices=["off", "degrade", "shed"],
        help=(
            "overload policy: degrade shrinks tau under load, shed also "
            "refuses requests past the headroom (off = admit everything)"
        ),
    )
    serve.add_argument(
        "--load-watermark",
        type=float,
        default=5_000.0,
        help="virtual in-flight cost (ms) above which admission kicks in",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help=(
            "serve through the async pipelined tier: plan micro-batch N+1 "
            "while batch N executes, bit-identically (--batch-size sets "
            "the chunk; default: the service's stream batch size)"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help=(
            "async tier only: per-session bound on queued requests before "
            "submitters feel backpressure (queued work also counts toward "
            "the admission load)"
        ),
    )
    serve.add_argument("--save-dir", default="results")
    serve.add_argument("--no-save", action="store_true")
    return parser


def _run_train(args) -> int:
    """Train an agent offline through the tensorized training subsystem."""
    import time

    from .core import Maliva, TrainingConfig
    from .experiments.setups import accurate_qte, dataset_setup, sampling_qte

    if args.candidates < 1:
        print("error: --candidates must be at least 1", file=sys.stderr)
        return 2
    if args.max_epochs is not None and args.max_epochs < 1:
        print("error: --max-epochs must be at least 1", file=sys.stderr)
        return 2
    if args.tau_ms is not None and args.tau_ms <= 0:
        print("error: --tau-ms must be positive", file=sys.stderr)
        return 2

    setup_kwargs = {} if args.tau_ms is None else {"tau_ms": args.tau_ms}
    setup = dataset_setup(args.dataset, args.scale, seed=args.seed, **setup_kwargs)
    qte = sampling_qte(setup) if args.qte == "sampling" else accurate_qte(setup)
    config = TrainingConfig(
        max_epochs=args.max_epochs if args.max_epochs is not None else setup.scale.max_epochs,
        seed=args.seed + 5,
        lockstep=args.lockstep,
    )
    maliva = Maliva(setup.database, setup.space, qte, setup.tau_ms, config=config)

    # Fused multi-candidate validation trains every candidate in lockstep
    # wave mode regardless of --lockstep; report the mode actually run.
    effective_lockstep = args.lockstep or args.candidates > 1
    if args.candidates > 1:
        mode = "fused lockstep waves"
    elif args.lockstep:
        mode = "lockstep waves"
    else:
        mode = "sequential episodes"
    print(
        f"training on {len(setup.split.train)} {args.dataset} queries "
        f"(tau={setup.tau_ms:.0f}ms, {args.qte} QTE, {mode}, "
        f"{args.candidates} candidate{'s' if args.candidates != 1 else ''}) ..."
    )
    started = time.perf_counter()
    history = maliva.train(
        list(setup.split.train),
        list(setup.split.validation),
        n_candidates=args.candidates,
    )
    wall_s = time.perf_counter() - started

    print(f"\n{'epoch':>5} {'total reward':>14} {'viable':>8}")
    print("-" * 30)
    for epoch, (reward, viable) in enumerate(
        zip(history.epoch_rewards, history.epoch_viable_fraction), start=1
    ):
        print(f"{epoch:>5} {reward:>14.3f} {viable:>7.0%}")
    status = "converged" if history.converged else "epoch cap reached"
    print(
        f"\n{history.epochs_run} epochs in {wall_s:.2f}s "
        f"({history.epochs_run / max(wall_s, 1e-9):.2f} epochs/s, {status})"
    )

    if not args.no_save:
        out_dir = Path(args.save_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "training_report.json"
        path.write_text(
            json.dumps(
                {
                    "dataset": args.dataset,
                    "scale": args.scale,
                    "seed": args.seed,
                    "tau_ms": setup.tau_ms,
                    "qte": args.qte,
                    "lockstep": effective_lockstep,
                    "n_candidates": args.candidates,
                    "epoch_rewards": history.epoch_rewards,
                    "epoch_viable_fraction": history.epoch_viable_fraction,
                    "epochs_run": history.epochs_run,
                    "converged": history.converged,
                    "training_seconds": history.training_seconds,
                    "wall_seconds": wall_s,
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"\nsaved: {path}")
    return 0


def _taxi_dashboard_stream(n_sessions: int, n_steps: int) -> list:
    """Interleaved taxi dashboard sessions (the taxi table has no TEXT
    column, so the exploration-session generator does not apply): each
    session replays the ops-dashboard widgets of examples/taxi_dashboard.py.
    """
    from .db import BoundingBox
    from .db.types import days
    from .serving import VizRequest, interleave
    from .viz import VisualizationKind, VisualizationRequest

    manhattan = BoundingBox(-74.03, 40.70, -73.93, 40.82)
    jfk = BoundingBox(-73.83, 40.62, -73.74, 40.67)
    city = BoundingBox(-74.30, 40.45, -73.65, 41.00)
    widgets = [
        VisualizationRequest(
            kind=VisualizationKind.HEATMAP,
            region=city,
            time_range=(days(1_000), days(1_095)),
            heatmap_cell_degrees=0.01,
            tau_ms=2_000.0,
        ),
        VisualizationRequest(
            kind=VisualizationKind.HEATMAP,
            region=manhattan,
            time_range=(days(1_060), days(1_067)),
            heatmap_cell_degrees=0.005,
        ),
        VisualizationRequest(
            kind=VisualizationKind.SCATTERPLOT,
            region=jfk,
            time_range=(days(1_030), days(1_060)),
            extra_ranges=(("trip_distance", (8.0, 60.0)),),
            tau_ms=600.0,
        ),
        VisualizationRequest(
            kind=VisualizationKind.SCATTERPLOT,
            region=city,
            time_range=(days(1_093), days(1_095)),
            extra_ranges=(("trip_distance", (0.0, 2.0)),),
        ),
    ]

    def session(index: int) -> list:
        return [
            VizRequest(
                payload=widgets[step % len(widgets)],
                session_id=f"dashboard-{index}",
                request_id=f"dashboard-{index}/w{step}",
            )
            for step in range(n_steps)
        ]

    return interleave(session(index) for index in range(n_sessions))


def _run_serve(args) -> int:
    """Train a middleware, then serve interleaved dashboard sessions."""
    from dataclasses import replace as dataclass_replace

    from .core import Maliva, TrainingConfig
    from .errors import BackendError
    from .experiments.setups import accurate_qte, dataset_setup, sampling_qte
    from .serving import ServiceConfig, build_service, interleave, requests_from_steps
    from .viz import TAXI_TRANSLATOR, TWITTER_TRANSLATOR
    from .workloads import ExplorationSessionGenerator

    # Validate before paying for dataset build + training.
    if args.sessions < 1 or args.steps < 1:
        print("error: --sessions and --steps must be at least 1", file=sys.stderr)
        return 2
    if args.tau_ms <= 0:
        print("error: --tau-ms must be positive", file=sys.stderr)
        return 2
    if args.batch_size is not None and args.batch_size < 1:
        print("error: --batch-size must be at least 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.routers < 1:
        print("error: --routers must be at least 1", file=sys.stderr)
        return 2
    if args.routers > 1 and args.shards > 1:
        print(
            "error: --routers and --shards cannot be combined; replicate "
            "the router tier or shard the execute stage, not both",
            file=sys.stderr,
        )
        return 2
    if args.rpc_deadline_ms < 0:
        print("error: --rpc-deadline-ms must be >= 0", file=sys.stderr)
        return 2
    if args.max_respawns < 0:
        print("error: --max-respawns must be >= 0", file=sys.stderr)
        return 2
    if args.load_watermark <= 0:
        print("error: --load-watermark must be positive", file=sys.stderr)
        return 2
    if args.queue_limit < 1:
        print("error: --queue-limit must be at least 1", file=sys.stderr)
        return 2
    if args.backend != "memory" and (args.shards > 1 or args.routers > 1):
        print(
            "error: --backend composes with the single-router, single-shard "
            "service; drop --shards/--routers",
            file=sys.stderr,
        )
        return 2

    setup = dataset_setup(
        args.dataset, scale=args.scale, tau_ms=args.tau_ms, seed=args.seed
    )
    if args.backend != "memory":
        from .backends import backend_profile

        main_table = {"twitter": "tweets", "taxi": "trips"}[args.dataset]
        bprofile = backend_profile(args.backend)
        pruned = bprofile.prune_space(
            setup.space, setup.database.table(main_table).schema
        )
        # Keep planning consistent with the real engine: only honored
        # hints stay in the action space, and the simulation the QTE/agent
        # train against mirrors the engine's hint behaviour.
        setup = dataclass_replace(setup, space=pruned)
        setup.database.profile = bprofile.sim_profile()
        print(
            f"backend {args.backend}: action space pruned to "
            f"{len(pruned)} options (hint dialect: {bprofile.hint_dialect})"
        )
    qte = (
        sampling_qte(setup) if args.qte == "sampling" else accurate_qte(setup)
    )
    maliva = Maliva(
        setup.database,
        setup.space,
        qte,
        args.tau_ms,
        config=TrainingConfig(max_epochs=10, seed=args.seed + 5),
    )
    print(f"training on {len(setup.split.train)} queries ...")
    maliva.train(list(setup.split.train), list(setup.split.validation))

    if args.dataset == "taxi":
        translator = TAXI_TRANSLATOR
        stream = _taxi_dashboard_stream(args.sessions, args.steps)
    else:
        translator = TWITTER_TRANSLATOR
        generator = ExplorationSessionGenerator(setup.database, seed=args.seed + 7)
        sessions = generator.generate_many(args.sessions, n_steps=args.steps)
        stream = interleave(
            requests_from_steps(steps, session_id)
            for session_id, steps in sessions.items()
        )
    service_config = ServiceConfig(
        translator=translator,
        scheduler=args.scheduler,
        admission=args.admission,
        load_watermark_ms=args.load_watermark,
        n_shards=args.shards,
        n_routers=args.routers,
        processes=not args.inline,
        rpc_deadline_ms=args.rpc_deadline_ms or None,
        max_respawns=args.max_respawns,
        backend=None if args.backend == "memory" else args.backend,
    )
    try:
        service = build_service(maliva, service_config)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def drive(reset_after: bool) -> dict:
        if args.use_async:
            import asyncio

            from .serving import AsyncMalivaService

            async def _drive_async() -> None:
                async with AsyncMalivaService(
                    service, session_queue_limit=args.queue_limit
                ) as tier:
                    async for _ in tier.answer_stream(
                        iter(stream), stream_batch_size=args.batch_size
                    ):
                        pass

            asyncio.run(_drive_async())
        elif args.batch_size is None:
            service.answer_many(stream)
        else:
            for _ in service.answer_stream(iter(stream), stream_batch_size=args.batch_size):
                pass
        stats = service.stats.to_dict()
        if reset_after:
            service.reset_stats()
        return stats

    if args.use_async:
        chunk = args.batch_size or service.stream_batch_size
        batching = f"async pipelined micro-batches of {chunk}"
    elif args.batch_size is None:
        batching = "whole batch"
    else:
        batching = f"micro-batches of {args.batch_size}"
    if args.routers > 1:
        sharding = f", {args.routers} replicated routers"
    elif args.shards > 1:
        sharding = f", {args.shards} shard workers"
    else:
        sharding = ""
    if args.backend != "memory":
        sharding += f", {args.backend} backend"
    print(
        f"serving {len(stream)} requests from {args.sessions} sessions "
        f"({args.scheduler} scheduler, {batching}{sharding}) ..."
    )
    try:
        cold = drive(reset_after=True)
        warm = drive(reset_after=False)
    except BaseException:
        service.close()
        raise

    header = f"{'':<22} {'cold engine':>14} {'warm cache':>14}"
    print(f"\n{header}\n" + "-" * len(header))
    for label, key, fmt in (
        ("throughput (req/s)", "throughput_qps", "{:14.1f}"),
        ("VQP", "vqp", "{:14.2f}"),
        ("mean latency (ms)", "mean_latency_ms", "{:14.1f}"),
        ("p95 latency (ms)", "p95_latency_ms", "{:14.1f}"),
    ):
        print(f"{label:<22} {fmt.format(cold[key])} {fmt.format(warm[key])}")
    print("\npipeline stage breakdown (wall seconds):")
    for column in ("cold", "warm"):
        stages = (cold if column == "cold" else warm)["stage_seconds"]
        total = sum(stages.values()) or 1.0
        rendered = "  ".join(
            f"{stage}={seconds:.3f}s ({seconds / total:.0%})"
            for stage, seconds in stages.items()
        )
        print(f"  {column:<5} {rendered}")
    report = service.report()
    service.close()
    print(f"\nengine cache hit rate: {report['engine_hit_rate']:.1%}")
    for name, cache in report["engine_caches"].items():
        held = f", {cache['bytes_held'] / 2**20:.2f} MiB" if cache["bytes_held"] else ""
        print(
            f"  {name:<10} {cache['hit_rate']:6.1%} hits, "
            f"{cache['entries']} entries{held}"
        )
    print(f"decision cache hits:   {warm['decision_cache_hits']}/{warm['n_requests']}")
    backend_report = report.get("backend")
    if backend_report:
        print(
            f"real backend:          {backend_report['name']} ran "
            f"{backend_report['n_queries']} queries in "
            f"{backend_report['wall_ms_total']:.0f} ms engine wall "
            f"({backend_report['n_bin_queries']} aggregates, "
            f"{backend_report['rows_returned']} rows returned)"
        )
    if args.use_async:
        print(
            f"async overlap:         {warm['n_overlapped_batches']} batches "
            f"overlapped, {warm['overlap_plan_s']:.3f}s planning hidden "
            f"behind execution"
        )
    shards = warm.get("shards")
    if shards:
        print(
            f"shard router:          {shards['n_shards']} shards, "
            f"{shards['n_scattered']} scattered / {shards['n_fallback']} fallback, "
            f"{shards['n_syncs']} syncs"
        )
        if shards["n_worker_deaths"] or shards["n_retired"]:
            print(
                f"fleet supervision:     {shards['n_worker_deaths']} worker deaths, "
                f"{shards['n_respawns']} respawns, "
                f"{shards['n_retired']} retired (breaker), "
                f"{shards['n_rebalances']} rebalances, "
                f"{shards['n_recovered_entries']} entries recovered on router"
            )
        for shard_id, window in shards["per_shard"].items():
            breaker = " [breaker open]" if window["breaker_open"] else ""
            supervision = (
                f", {window['n_deaths']} deaths / {window['n_respawns']} respawns"
                if window["n_deaths"]
                else ""
            )
            print(
                f"  shard {shard_id}: {window['n_queries']} queries in "
                f"{window['n_batches']} batches, {window['wall_s']:.3f}s worker wall, "
                f"{window['cache_hits']}/{window['cache_hits'] + window['cache_misses']} "
                f"cache hits{supervision}{breaker}"
            )
    routers = warm.get("routers")
    if routers:
        print(
            f"router fleet:          {routers['n_routers']} replicas, "
            f"{routers['n_dispatched']} dispatched / {routers['n_local']} local, "
            f"{routers['n_gossip_broadcast']} decisions gossiped "
            f"({routers['n_gossip_hits']} mirror hits), "
            f"{routers['n_syncs']} syncs, "
            f"journal high-water {routers['journal_high_water']}"
        )
        if routers["n_router_deaths"] or routers["n_retired"]:
            print(
                f"fleet supervision:     {routers['n_router_deaths']} router deaths, "
                f"{routers['n_respawns']} respawns, "
                f"{routers['n_retired']} retired (breaker), "
                f"{routers['n_rebalances']} session rebalances, "
                f"{routers['n_replayed']} journaled requests replayed"
            )
        for router_id, window in routers["per_router"].items():
            breaker = " [breaker open]" if window["breaker_open"] else ""
            supervision = (
                f", {window['n_deaths']} deaths / {window['n_respawns']} respawns"
                if window["n_deaths"]
                else ""
            )
            print(
                f"  router {router_id}: {window['n_requests']} requests in "
                f"{window['n_batches']} batches, {window['wall_s']:.3f}s replica wall, "
                f"{window['n_cached']} decision-cached "
                f"({window['n_gossip_hits']} via gossip){supervision}{breaker}"
            )
    if args.admission != "off":
        snapshot = report.get("admission", {})
        print(
            f"admission ({args.admission}):   "
            f"{warm['n_tau_degraded']} degraded / {warm['n_shed']} shed "
            f"(watermark {args.load_watermark:.0f}ms, "
            f"ewma cost {snapshot.get('cost_ewma_ms') or 0.0:.1f}ms)"
        )
    sharing = warm["execute_sharing"]
    if sharing["n_batches"]:
        print(
            "execute-stage sharing: "
            f"{sharing['shared_scans']} scans + {sharing['shared_bins']} histograms "
            f"reused across {sharing['n_queries']} requests "
            f"({sharing['n_probe_sweeps']} fused probe sweeps, "
            f"{sharing['n_bin_sweeps']} fused bin sweeps)"
        )

    if not args.no_save:
        out_dir = Path(args.save_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "serving_report.json"
        path.write_text(
            json.dumps(
                {"cold": cold, "warm": warm, "report": report},
                indent=2,
                sort_keys=True,
            )
        )
        print(f"\nsaved: {path}")
    return 0


def _emit(result, args) -> None:
    if isinstance(result, ExperimentResult):
        metrics = ["vqp", "aqrt_ms"]
        if any(
            summary.avg_quality is not None
            for row in result.rows
            for summary in row.summaries.values()
        ):
            metrics.append("avg_quality")
        print(render_experiment(result, metrics))
        if not args.no_save:
            path = save_json(result, args.save_dir)
            print(f"\nsaved: {path}")
        return
    # Table / learning-curve / ablation results all expose render/to_dict.
    print(result.render())
    if not args.no_save:
        out_dir = Path(args.save_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = result.to_dict().get("experiment_id") or getattr(
            result, "name", "result"
        )
        path = out_dir / f"{str(name).replace(' ', '_')}.json"
        path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        print(f"\nsaved: {path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _run_train(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "list":
        width = max(len(name) for name in _EXPERIMENTS)
        for name, (description, _) in sorted(_EXPERIMENTS.items()):
            print(f"{name:<{width}}  {description}")
        return 0

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        description, runner = _EXPERIMENTS[name]
        print(f"== {name}: {description} (scale={args.scale}) ==\n")
        _emit(runner(args), args)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
