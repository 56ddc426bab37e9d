"""Concurrent serving layer: batch/stream request serving on shared caches.

This package is the architectural seam between "a middleware algorithm"
(``repro.core``) and "a middleware deployment" (many dashboard users, one
engine).  There is one service class, :class:`MalivaService`; what sits
behind its pipeline is an execute stage (:class:`LocalExecute`,
:class:`BackendExecute`, :class:`ScatterExecute`,
:class:`DispatchExecute`) passed as ``execute=``.  See DESIGN.md §4 for
the cache hierarchy it coordinates, §4.5
for the worker-fleet substrate both multi-process tiers run on
(:mod:`repro.serving.fleet`: one transport, fault interpretation,
deadline classes, supervised slots with warm respawn and a breaker) and
the shard tier's recovery and admission control, and §4.7 for the
replicated router tier (journaled failover, decision-cache gossip).
"""

from .admission import AdmissionController, AdmissionVerdict
from .async_service import AsyncMalivaService
from .backend_service import BackendExecute
from .factory import ServiceConfig, build_service
from .faults import FaultPlan, FaultSpec, RandomFaultPlan, WorkerFault, WorkerTimeout
from .fleet import SupervisedFleet
from .replicated import DispatchExecute, RouterSpec, router_spec_for
from .requests import VizRequest, interleave, requests_from_steps, with_budget
from .scheduler import FifoScheduler, SessionAffinityScheduler
from .service import ExecuteStage, LocalExecute, MalivaService
from .sharded import ScatterExecute
from .stats import (
    RequestRecord,
    RouterStats,
    RouterWindow,
    ServiceStats,
    ShardStats,
    ShardWindow,
)

__all__ = [
    "AdmissionController",
    "AdmissionVerdict",
    "AsyncMalivaService",
    "BackendExecute",
    "DispatchExecute",
    "ExecuteStage",
    "FaultPlan",
    "FaultSpec",
    "FifoScheduler",
    "LocalExecute",
    "MalivaService",
    "RandomFaultPlan",
    "RequestRecord",
    "RouterSpec",
    "RouterStats",
    "RouterWindow",
    "ScatterExecute",
    "ServiceConfig",
    "ServiceStats",
    "SessionAffinityScheduler",
    "ShardStats",
    "ShardWindow",
    "SupervisedFleet",
    "VizRequest",
    "WorkerFault",
    "WorkerTimeout",
    "build_service",
    "interleave",
    "requests_from_steps",
    "router_spec_for",
    "with_budget",
]
