"""ServiceConfig/build_service: one place that composes a serving stack.

Every composition the serve CLI offers must be reachable through the
factory, and every one of them is the same ``MalivaService`` over a
different execute stage.
"""

import pytest

from repro.backends import SqliteBackend
from repro.errors import QueryError
from repro.serving import (
    AdmissionController,
    AsyncMalivaService,
    BackendExecute,
    DispatchExecute,
    FifoScheduler,
    LocalExecute,
    MalivaService,
    ScatterExecute,
    ServiceConfig,
    SessionAffinityScheduler,
    build_service,
)
from repro.viz import TWITTER_TRANSLATOR


class TestPlainCompositions:
    def test_default_is_plain_service(self, serving_maliva):
        with build_service(serving_maliva) as service:
            assert type(service) is MalivaService
            assert type(service.execute) is LocalExecute
            assert isinstance(service.scheduler, SessionAffinityScheduler)
            assert service.admission is None

    def test_named_policies_resolve(self, serving_maliva):
        config = ServiceConfig(
            translator=TWITTER_TRANSLATOR,
            scheduler="fifo",
            admission="degrade",
            load_watermark_ms=2_000.0,
            stream_batch_size=4,
        )
        with build_service(serving_maliva, config) as service:
            assert isinstance(service.scheduler, FifoScheduler)
            assert isinstance(service.admission, AdmissionController)
            assert service.admission.mode == "degrade"
            assert service.stream_batch_size == 4

    def test_instances_pass_through(self, serving_maliva):
        scheduler = FifoScheduler()
        admission = AdmissionController(load_watermark_ms=1.0, mode="shed")
        with build_service(
            serving_maliva, scheduler=scheduler, admission=admission
        ) as service:
            assert service.scheduler is scheduler
            assert service.admission is admission

    def test_overrides_beat_config(self, serving_maliva):
        config = ServiceConfig(scheduler="affinity")
        with build_service(serving_maliva, config, scheduler="fifo") as service:
            assert isinstance(service.scheduler, FifoScheduler)

    def test_serves_requests(self, serving_maliva, make_workload):
        config = ServiceConfig(translator=TWITTER_TRANSLATOR)
        with build_service(serving_maliva, config) as service:
            outcomes = service.answer_many(make_workload(3, 6))
            assert len(outcomes) == 6


class TestScaleOutCompositions:
    def test_sharded(self, serving_maliva):
        config = ServiceConfig(
            translator=TWITTER_TRANSLATOR, n_shards=2, processes=False
        )
        with build_service(serving_maliva, config) as service:
            assert type(service) is MalivaService
            assert type(service.execute) is ScatterExecute

    def test_replicated(self, serving_maliva):
        config = ServiceConfig(
            translator=TWITTER_TRANSLATOR, n_routers=2, processes=False
        )
        with build_service(serving_maliva, config) as service:
            assert type(service) is MalivaService
            assert type(service.execute) is DispatchExecute

    def test_backend(self, serving_maliva):
        config = ServiceConfig(translator=TWITTER_TRANSLATOR, backend="sqlite")
        with build_service(serving_maliva, config) as service:
            assert type(service) is MalivaService
            assert type(service.execute) is BackendExecute
            assert service.report()["backend"]["name"] == "sqlite"

    def test_backend_instance_keeps_caller_ownership(self, serving_maliva):
        backend = SqliteBackend()
        backend.ingest(serving_maliva.database)
        config = ServiceConfig(translator=TWITTER_TRANSLATOR, backend=backend)
        service = build_service(serving_maliva, config)
        assert type(service) is MalivaService
        assert service.execute.backend is backend
        service.close()
        # The factory did not take ownership: the backend is still open.
        assert not backend._closed
        backend.close()

    def test_memory_string_means_plain(self, serving_maliva):
        with build_service(serving_maliva, backend="memory") as service:
            assert type(service) is MalivaService
            assert type(service.execute) is LocalExecute

    def test_async_wrapper(self, serving_maliva):
        config = ServiceConfig(
            translator=TWITTER_TRANSLATOR, use_async=True, session_queue_limit=7
        )
        wrapper = build_service(serving_maliva, config)
        assert isinstance(wrapper, AsyncMalivaService)
        assert type(wrapper.service) is MalivaService
        assert type(wrapper.service.execute) is LocalExecute
        wrapper.service.close()


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_shards": 0},
            {"n_routers": 0},
            {"n_shards": 2, "n_routers": 2},
            {"backend": "sqlite", "n_shards": 2},
            {"backend": "sqlite", "n_routers": 2},
            {"scheduler": "lifo"},
            {"admission": "panic"},
            {"backend": 42},
            {"n_shards": 2, "shard_by": "table"},
        ],
    )
    def test_rejected_compositions(self, serving_maliva, overrides):
        with pytest.raises(QueryError):
            build_service(serving_maliva, **overrides)
