"""Deterministic fault injection for the worker fleets.

Every recovery path of the two multi-process tiers — shard workers under
:class:`~repro.serving.sharded.ScatterExecute`, router replicas under
:class:`~repro.serving.replicated.DispatchExecute` — (worker death,
hung replies, garbled payloads, crashes during coherence syncs) must be
testable on demand, inline and in real worker processes.  A router
replica talks only to the dispatcher, so its faultable ops are a served
sub-batch, a catalog sync and a stats probe.  A
:class:`FaultPlan` is the hook: the *router-side* channel
(:mod:`repro.serving.fleet`) consults it once per worker op and ships the
resulting action (crash / hang / garble) inside the op message, so the
worker misbehaves at exactly the chosen call.

Counting lives on the router, not in the worker, on purpose: a respawned
worker is a fresh process built from a re-pickled spec, and worker-side
counters would reset with it — a one-shot fault would then re-fire after
every respawn and no test could ever see the service heal.  Router-side
counting survives respawns, so "crash the 3rd execute on worker 1" means
the 3rd execute *ever sent* to slot 1, full stop.

The inline channel interprets the same actions directly (a crash raises
:class:`WorkerFault`, a hang :class:`WorkerTimeout`, a garbled reply goes
through the same validation as a real one), so the whole recovery
machinery is exercised without process churn in unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Fault kinds a plan can inject.
CRASH = "crash"  # worker exits before replying -> router sees EOF
HANG = "hang"  # worker sleeps past any deadline -> router timeout
GARBLE = "garble"  # worker replies nonsense -> router validation fault

KINDS = (CRASH, HANG, GARBLE)

#: Worker ops a fault can target ("any" matches all of them).  The first
#: group is served by shard workers, the second by router replicas
#: (:mod:`repro.serving.replicated`); both tiers consult the same plan, so
#: a spec can target either kind of process by op name (``shard_id`` then
#: counts the router id for router ops).
SHARD_OPS = ("execute", "sync", "cache_stats")
ROUTER_OPS = ("serve", "router_sync", "router_stats")
OPS = SHARD_OPS + ROUTER_OPS

#: The junk payload a garbling worker ships in place of its real reply.
GARBLED_REPLY = "<garbled worker reply>"


class WorkerFault(Exception):
    """A worker op failed (EOF, pipe error, garbled or error reply).

    Internal to the serving tiers: the supervisor consumes it — marking the
    worker dead and recovering the affected work — so it never escapes a
    service call.
    """


class WorkerTimeout(WorkerFault):
    """A worker op exceeded its per-call reply deadline."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: misbehave on the ``nth`` matching worker op."""

    op: str  # one of OPS, or "any"
    kind: str  # one of KINDS
    nth: int = 1  # 1-based count of matching ops on the target shard
    shard_id: int | None = None  # None targets every shard
    repeat: bool = False  # fire on every call from the nth on

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.op != "any" and self.op not in OPS:
            raise ValueError(f"unknown fault op {self.op!r}")
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")


class FaultPlan:
    """A schedule of worker faults, consulted router-side once per op."""

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        self.faults = list(faults)
        self._counts: dict[tuple[int, str], int] = {}

    def action_for(self, shard_id: int, op: str) -> str | None:
        """Count this (shard, op) call and return the fault kind, if any."""
        if op not in OPS:
            # Lifecycle ops (init, stop) are never faulted — an "any" spec
            # that crashed init would make respawn impossible.
            return None
        key = (shard_id, op)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        for fault in self.faults:
            if fault.op != "any" and fault.op != op:
                continue
            if fault.shard_id is not None and fault.shard_id != shard_id:
                continue
            if count == fault.nth or (fault.repeat and count > fault.nth):
                return fault.kind
        return None

    @classmethod
    def random(
        cls,
        seed: int,
        rate: float = 0.05,
        kinds: Sequence[str] = (CRASH, GARBLE),
        ops: Sequence[str] = ("execute",),
    ) -> "RandomFaultPlan":
        """A chaos plan: each matching op faults with probability ``rate``.

        Deterministic given the seed and the op call sequence, so a chaos
        failure reproduces under the same ``REPRO_CHAOS_SEED``.
        """
        return RandomFaultPlan(seed, rate=rate, kinds=kinds, ops=ops)


class RandomFaultPlan(FaultPlan):
    """Seeded random faults over a set of ops (the chaos-pass plan)."""

    def __init__(
        self,
        seed: int,
        *,
        rate: float = 0.05,
        kinds: Sequence[str] = (CRASH, GARBLE),
        ops: Sequence[str] = ("execute",),
    ) -> None:
        super().__init__([])
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be a probability")
        for kind in kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.rate = rate
        self.kinds = tuple(kinds)
        self.ops = frozenset(ops)
        self._rng = np.random.default_rng(seed)

    def action_for(self, shard_id: int, op: str) -> str | None:
        if op not in self.ops or not self.kinds:
            return None
        if self._rng.random() >= self.rate:
            return None
        return self.kinds[int(self._rng.integers(len(self.kinds)))]
