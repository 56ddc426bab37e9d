"""Frozen workload definitions and the metric names of ``BENCHMARK.json``.

Everything a workload's numbers depend on is written down here once and
never derived at run time: dataset size, ``tau_ms``, slice sizes, the
open-loop rates.  They were calibrated on the seed-state code (see
``SEED_STATE.json``) and are then frozen — a later change that moves a
number here is a benchmark change, not a performance change.

Two seeds exist on purpose.  ``WORLD_SEED`` builds what a deployment
*has* and what its users *ask* (dataset, sample table, fitted QTE, trained
agent, the blocks of requests — see ``traffic.py``); ``--seed`` decides the
order the questions arrive in, which sessions run side by side, and the
rows ``ingest_mixed`` appends.  The driver gates every end-to-end metric
on its spread across ten ``--seed`` values; a freshly trained agent moves
``vqp`` by several points and freshly drawn requests move a slice's cost
by +-18 %, more than any optimisation would, so the world is held still
and the order varies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

WORLD_SEED = 0

#: Requests replayed through the twin after the timed window.
CHECK_REQUESTS = 64
#: Requests sampled for the untimed QTE-error / no-rewrite baseline.
QTE_SAMPLE_REQUESTS = 200
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "single" | "sqlite" | "sharded" | "replicated" | "async"
    stack: str
    #: "closed" (answer_stream, 8 clients in flight) | "open" (submit on a schedule)
    loop: str
    #: "twitter" | "taxi"
    dataset: str
    rows: int
    tau_ms: float
    #: "explore" | "dashboard" | "taxi"
    traffic: str
    sessions: int
    slice_requests: int
    #: Untimed requests served before the first timed one (part of set-up).
    warmup_requests: int
    #: Timed slices every closed-loop run completes whatever ``--seconds``
    #: says: the first block of traffic.  The virtual-time metrics
    #: (``vqp``, ``aqrt_ms``, ``db.work.*``) are taken over exactly these,
    #: so they repeat bit for bit however fast the host is.
    exact_slices: int = 4
    #: explore traffic: steps before a lane's user leaves and a new one arrives.
    steps_per_session: int = 8
    #: dashboard traffic: size of the pool of views and its Zipf exponent.
    pool_views: int = 64
    zipf_s: float = 1.1
    #: ingest_mixed: rows appended at the head of every slice.
    append_rows: int = 0
    #: open loop: offered rates (req/s), the share of ``--seconds`` each is
    #: offered for, and the p95 limit that defines ``max_rate_rps``.  The
    #: lowest rate, where latency is read, gets half the window; the
    #: warm-up arrives at it too.
    rates_rps: tuple[float, ...] = ()
    phase_shares: tuple[float, ...] = ()
    limit_ms: float = 0.0
    #: open loop: admission's load watermark in virtual ms — about a hundred
    #: requests' worth of deadline before deadlines shrink, twice that
    #: before requests are shed.
    load_watermark_ms: float = 20_000.0
    #: open loop: the window, in seconds, one block of traffic lasts for.
    block_s: float = 8.0

    def phase_requests(self, seconds: float) -> list[int]:
        """Open loop: how many requests each rate is offered in ``seconds``."""
        return [
            int(round(rate * share * seconds))
            for rate, share in zip(self.rates_rps, self.phase_shares)
        ]

    @property
    def block_requests(self) -> int:
        """Requests in one block of traffic (see ``traffic.py``)."""
        if self.loop == "open":
            return sum(self.phase_requests(self.block_s))
        return self.exact_slices * self.slice_requests

    @property
    def exact_virtual(self) -> bool:
        """Virtual times repeat exactly: simulated engine, closed loop."""
        return self.stack != "sqlite" and self.loop == "closed"

    def scaled(self, scale: float) -> "Workload":
        """The same workload at a fraction of its size (``--smoke``)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            rows=max(2_000, int(self.rows * scale)),
            slice_requests=max(64, int(self.slice_requests * scale)),
            warmup_requests=max(32, int(self.warmup_requests * scale)),
        )


_TWITTER_ROWS = 40_000
_FLEET_ROWS = 30_000

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="explore_distinct",
        why="distinct exploration requests: planner and batched executor both do most of their work",
        stack="single", loop="closed", dataset="twitter", rows=_TWITTER_ROWS,
        tau_ms=200.0, traffic="explore", sessions=16, slice_requests=1_000,
        warmup_requests=400, exact_slices=8,
    ),
    Workload(
        name="dashboard_repeat",
        why="Zipf-repeated dashboard views: caches hit, so serving-layer overhead and cached execute dominate",
        stack="single", loop="closed", dataset="twitter", rows=_TWITTER_ROWS,
        tau_ms=180.0, traffic="dashboard", sessions=32, slice_requests=3_000,
        warmup_requests=1_000,
    ),
    Workload(
        name="ingest_mixed",
        why="dashboard traffic with appends between slices: invalidation and rebuild cost of every cache",
        stack="single", loop="closed", dataset="twitter", rows=_TWITTER_ROWS,
        tau_ms=180.0, traffic="dashboard", sessions=32, slice_requests=2_000,
        warmup_requests=1_000,
        append_rows=100,
    ),
    Workload(
        name="taxi_sqlite",
        why="real SQLite execution: compile + SQL wall time dominate and vqp is measured on an engine",
        stack="sqlite", loop="closed", dataset="taxi", rows=30_000,
        tau_ms=32.0, traffic="taxi", sessions=12, slice_requests=240,
        warmup_requests=96, exact_slices=8,
    ),
    Workload(
        name="fleet_sharded",
        why="2 shard workers: scatter/gather RPC (pickle, pipe transit, worker wait, merge) is the work",
        stack="sharded", loop="closed", dataset="twitter", rows=_FLEET_ROWS,
        tau_ms=150.0, traffic="explore", sessions=16, slice_requests=600,
        warmup_requests=300, exact_slices=8,
    ),
    Workload(
        name="fleet_replicated",
        why="2 router replicas: dispatcher journal, session routing, gossip and per-replica stacks are the work",
        stack="replicated", loop="closed", dataset="twitter", rows=_FLEET_ROWS,
        tau_ms=150.0, traffic="explore", sessions=16, slice_requests=600,
        warmup_requests=300, exact_slices=8,
    ),
    Workload(
        name="arrivals_open",
        why="open-loop arrivals at four fixed rates: admission, session queues and plan/execute overlap under backlog",
        stack="async", loop="open", dataset="twitter", rows=_TWITTER_ROWS,
        tau_ms=200.0, traffic="explore", sessions=32, slice_requests=0,
        warmup_requests=150, rates_rps=(300.0, 450.0, 600.0, 750.0),
        phase_shares=(1 / 2, 1 / 6, 1 / 6, 1 / 6), limit_ms=100.0,
        # 18 strata of ~200 requests: 6 + 3 + 4 + 5 of them make the four
        # phases, so each rate is offered the same questions on every seed.
        exact_slices=18,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` for ``end_to_end`` or ``per_layer``, in file order."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}
