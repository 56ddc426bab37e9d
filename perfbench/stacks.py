"""Build what a workload runs against, through the public API only.

A :class:`Stack` is one full set-up: dataset, indexes, sample table, fitted
``SamplingQTE``, trained agent and the composed service.  Every piece comes
from ``WORLD_SEED`` (see ``spec.py``), so two stacks of one workload are
twins: the second answers the output check for the first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backends import SqliteBackend, backend_profile
from repro.core import Maliva, RewriteOptionSpace, TrainingConfig
from repro.datasets import (
    TRIP_FILTER_ATTRIBUTES,
    TaxiConfig,
    TwitterConfig,
    build_taxi_database,
    build_twitter_database,
)
from repro.db import EngineProfile
from repro.experiments.setups import (
    EXPERIMENT_ZOOM_DECAY,
    QTE_SAMPLE_FRACTION,
    TWITTER_ATTRS_3,
)
from repro.qte import SamplingQTE
from repro.serving import AdmissionController, ServiceConfig, build_service
from repro.viz import TWITTER_TRANSLATOR
from repro.workloads import TaxiWorkloadGenerator, TwitterWorkloadGenerator

from .spec import WORLD_SEED, Workload
from .tracing import (
    Recorder,
    TracedAdmission,
    TracedMaliva,
    TracedNetwork,
    TracedSamplingQTE,
    TracedScheduler,
    TracedSqliteBackend,
    TracedTranslator,
)

#: Offline phase, kept small so a run's set-up stays a few seconds: the
#: benchmark measures serving, not training.
N_TRAIN_QUERIES = 24
N_FIT_QUERIES = 8
TRAIN_EPOCHS = 4

_now = time.perf_counter


@dataclass
class Stack:
    workload: Workload
    maliva: Maliva
    service: object
    translator: object | None
    backend: SqliteBackend | None = None
    #: Driver timers of the set-up's parts, in seconds.
    timers: dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        """Stop workers and release the backend (idempotent)."""
        inner = getattr(self.service, "service", self.service)
        inner.close()
        if self.backend is not None:
            self.backend.close()

    def to_query(self, request):
        """The ``SelectQuery`` the service resolves ``request`` to."""
        if request.is_translated:
            return request.payload
        return self.translator.to_query(request.payload)


def _build_database(workload: Workload):
    seed = WORLD_SEED
    if workload.dataset == "twitter":
        database = build_twitter_database(
            TwitterConfig(
                n_tweets=workload.rows,
                n_users=max(200, workload.rows // 20),
                seed=seed + 1,
            ),
            profile=EngineProfile.deterministic(),
            seed=seed,
        )
        table, sample = "tweets", "tweets_qte_sample"
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS_3)
        generator = TwitterWorkloadGenerator(
            database,
            attributes=TWITTER_ATTRS_3,
            seed=seed + 2,
            zoom_decay=EXPERIMENT_ZOOM_DECAY,
        )
    else:
        profile = backend_profile("sqlite")
        database = build_taxi_database(
            TaxiConfig(n_trips=workload.rows, seed=seed + 1),
            profile=profile.sim_profile(),
            seed=seed,
        )
        table, sample = "trips", "trips_qte_sample"
        # Only the hints SQLite can honour stay in the action space.
        space = profile.prune_space(
            RewriteOptionSpace.hint_subsets(TRIP_FILTER_ATTRIBUTES),
            database.table(table).schema,
        )
        generator = TaxiWorkloadGenerator(
            database, seed=seed + 2, zoom_decay=EXPERIMENT_ZOOM_DECAY
        )
    database.create_sample_table(
        table, QTE_SAMPLE_FRACTION, name=sample, seed=seed + 11
    )
    return database, space, sample, generator


def build_stack(workload: Workload, recorder: Recorder | None = None) -> Stack:
    """One full set-up; with ``recorder``, the traced doubles are wired in."""
    traced = recorder is not None
    fleet = workload.stack in ("sharded", "replicated")
    timers: dict[str, float] = {}

    started = _now()
    database, space, sample, generator = _build_database(workload)
    train_queries = generator.generate(N_TRAIN_QUERIES)
    timers["datasets.build_s"] = _now() - started

    started = _now()
    qte = (TracedSamplingQTE if traced else SamplingQTE)(
        database, space.attributes, sample
    )
    qte.fit(
        [
            space.build(query, database, index)
            for query in train_queries[:N_FIT_QUERIES]
            for index in range(len(space))
        ]
    )
    timers["qte.fit_s"] = _now() - started

    started = _now()
    maliva = (TracedMaliva if traced else Maliva)(
        database,
        space,
        qte,
        workload.tau_ms,
        config=TrainingConfig(max_epochs=TRAIN_EPOCHS, seed=WORLD_SEED + 13),
    )
    maliva.train(list(train_queries))
    timers["core.trainer.train_s"] = _now() - started

    translator = TWITTER_TRANSLATOR if workload.dataset == "twitter" else None
    config = ServiceConfig(translator=translator)
    if traced:
        qte.recorder = maliva.recorder = recorder
        if translator is not None:
            translator = TracedTranslator(translator, recorder)
        config = ServiceConfig(translator=translator)
        if not fleet:
            # Fleet tiers pickle the agent (and the replicated tier its
            # scheduler) to workers that plan and schedule with their own
            # copies; a dispatcher-side double would record nothing there.
            scheduler = TracedScheduler()
            scheduler.recorder = recorder
            config = ServiceConfig(translator=translator, scheduler=scheduler)
            maliva.agent.network = TracedNetwork(maliva.agent.network, recorder)

    backend = None
    overrides: dict[str, object] = {}
    if workload.stack == "sqlite":
        started = _now()
        backend = (TracedSqliteBackend if traced else SqliteBackend)()
        if traced:
            backend.recorder = recorder
        backend.ingest(database)
        timers["backends.ingest_s"] = _now() - started
        overrides["backend"] = backend
    elif workload.stack == "sharded":
        overrides.update(n_shards=2, shard_by="rows", processes=True)
    elif workload.stack == "replicated":
        overrides.update(n_routers=2, processes=True)
    elif workload.stack == "async":
        admission = (TracedAdmission if traced else AdmissionController)(
            load_watermark_ms=workload.load_watermark_ms, mode="shed"
        )
        if traced:
            admission.recorder = recorder
        overrides.update(use_async=True, admission=admission)

    started = _now()
    try:
        service = build_service(maliva, config, **overrides)
    except BaseException:
        if backend is not None:
            backend.close()
        raise
    timers[f"serving.{workload.stack}.spawn_s"] = _now() - started
    return Stack(workload, maliva, service, translator, backend, timers)
