"""One place that composes a serving stack: :func:`build_service`.

:class:`ServiceConfig` is the single declarative description —
scheduler/admission policies by name, which execute stage sits behind the
pipeline (local engine, real backend, shard fleet, router fleet), the
async wrapper — and :func:`build_service` resolves it to one execute
stage and one :class:`MalivaService`.  This is sugar, not a layer:
``MalivaService(maliva, execute=<stage>)`` is the same thing by hand, and
reaches the fleet knobs the config does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..backends import ExecutionBackend, create_backend
from ..errors import QueryError
from .admission import AdmissionController
from .backend_service import BackendExecute
from .scheduler import FifoScheduler, SessionAffinityScheduler
from .service import ExecuteStage, MalivaService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.middleware import Maliva

__all__ = ["ServiceConfig", "build_service"]

_SCHEDULERS = {
    "affinity": SessionAffinityScheduler,
    "fifo": FifoScheduler,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative description of one serving composition.

    String fields accept either a policy name (resolved here) or an
    already-built object (passed through), so tests can inject doubles
    while the CLI stays entirely name-based.
    """

    # -- base service ---------------------------------------------------
    translator: object | None = None
    default_tau_ms: float | None = None
    #: "affinity", "fifo", or a scheduler instance.
    scheduler: object = "affinity"
    decision_cache_size: int = 4096
    quality_fn: object | None = None
    stream_batch_size: int = 8
    #: "off", "degrade", "shed", None, or an AdmissionController.
    admission: object | None = "off"
    load_watermark_ms: float = 5_000.0

    # -- execute stage (the three non-local stages are exclusive) -------
    n_shards: int = 1
    #: The shard partition: "rows" (contiguous row ranges) is the only one.
    shard_by: str = "rows"
    n_routers: int = 1
    #: Worker/replica processes (False = inline, for debugging).
    processes: bool = True
    rpc_deadline_ms: float | None = 10_000.0
    max_respawns: int = 3
    fault_plan: object | None = None

    #: None/"memory" = in-memory engine; "sqlite"/"duckdb" = build and
    #: ingest a real backend; an ExecutionBackend instance = use as-is
    #: (caller keeps ownership and must have ingested it).
    backend: object | None = None

    # -- async front end ------------------------------------------------
    use_async: bool = False
    session_queue_limit: int = 32


def _resolve_scheduler(config: ServiceConfig) -> object:
    if isinstance(config.scheduler, str):
        try:
            return _SCHEDULERS[config.scheduler]()
        except KeyError:
            raise QueryError(
                f"unknown scheduler {config.scheduler!r} "
                f"(have: {sorted(_SCHEDULERS)})"
            ) from None
    return config.scheduler


def _resolve_admission(config: ServiceConfig) -> AdmissionController | None:
    admission = config.admission
    if admission is None or admission == "off":
        return None
    if isinstance(admission, str):
        if admission not in ("degrade", "shed"):
            raise QueryError(
                f"unknown admission policy {admission!r} "
                "(have: off, degrade, shed)"
            )
        return AdmissionController(
            load_watermark_ms=config.load_watermark_ms, mode=admission
        )
    return admission


def _resolve_execute(maliva: "Maliva", config: ServiceConfig) -> ExecuteStage | None:
    """The one execute stage ``config`` asks for (``None``: the local engine)."""
    if config.n_shards < 1 or config.n_routers < 1:
        raise QueryError("n_shards and n_routers must be at least 1")
    if config.shard_by != "rows":
        raise QueryError(
            f"shard_by must be 'rows' (the only partition), got {config.shard_by!r}"
        )
    if config.n_shards > 1 and config.n_routers > 1:
        raise QueryError(
            "replicate the router tier or shard the execute stage, not both"
        )
    backend = None if config.backend == "memory" else config.backend
    if backend is not None and (config.n_shards > 1 or config.n_routers > 1):
        raise QueryError(
            "a real execution backend composes with the single-router, "
            "single-shard service (the scatter tiers execute virtually)"
        )
    fleet_kwargs = dict(
        processes=config.processes,
        rpc_deadline_ms=config.rpc_deadline_ms,
        max_respawns=config.max_respawns,
        fault_plan=config.fault_plan,
    )
    if config.n_routers > 1:
        from .replicated import DispatchExecute

        return DispatchExecute(n_routers=config.n_routers, **fleet_kwargs)
    if config.n_shards > 1:
        from .sharded import ScatterExecute

        return ScatterExecute(n_shards=config.n_shards, **fleet_kwargs)
    if isinstance(backend, str):
        owned: ExecutionBackend = create_backend(backend)
        owned.ingest(maliva.database)
        return BackendExecute(owned)
    if isinstance(backend, ExecutionBackend):
        return BackendExecute(backend, own_backend=False)
    if backend is not None:
        raise QueryError(
            f"backend must be a name or an ExecutionBackend, got {backend!r}"
        )
    return None


def build_service(maliva: "Maliva", config: ServiceConfig | None = None, **overrides):
    """Compose the serving stack ``config`` describes.

    Returns a :class:`MalivaService` over the configured execute stage;
    with ``use_async`` set, the service comes wrapped in a single-use
    :class:`AsyncMalivaService` front end — session queues and a fair
    drain over the same pipeline, one execute call per micro-batch.  Drive
    it inside one ``async with`` block; its ``service`` property reaches
    the inner stack for reports.
    """
    config = replace(config or ServiceConfig(), **overrides)
    service = MalivaService(
        maliva,
        translator=config.translator,
        default_tau_ms=config.default_tau_ms,
        scheduler=_resolve_scheduler(config),
        decision_cache_size=config.decision_cache_size,
        quality_fn=config.quality_fn,
        stream_batch_size=config.stream_batch_size,
        admission=_resolve_admission(config),
        execute=_resolve_execute(maliva, config),
    )
    if config.use_async:
        from .async_service import AsyncMalivaService

        return AsyncMalivaService(
            service, session_queue_limit=config.session_queue_limit
        )
    return service
