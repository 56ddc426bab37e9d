"""The execute-stage seam: what ``MalivaService`` promises any stage.

Every stage — local, backend, scatter, dispatch, or a test double — sees
the same calls in the same order; the per-stage suites pin what each one
does with them, this one pins the calls.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import AsyncMalivaService, LocalExecute, MalivaService
from repro.viz import TWITTER_TRANSLATOR

from tests.conftest import build_session_stream
from tests.serving.test_sharded_service import _build_maliva, _mutation_columns


class RecordingExecute(LocalExecute):
    """The local stage, logging each hook call and the batches it ran."""

    def __init__(self) -> None:
        self.events: list[tuple[str, object]] = []
        self.batches: list[list] = []

    def run(self, planned):
        self.events.append(("run", len(self.batches)))
        self.batches.append(list(planned.requests))
        return super().run(planned)

    def table_invalidated(self, table_name):
        self.events.append(("table_invalidated", table_name))

    def close(self):
        self.events.append(("close", None))


@pytest.mark.parametrize("tier", ["sync", "async"])
def test_stage_hooks_run_once_per_micro_batch_in_order(tier):
    maliva = _build_maliva(n_tweets=400, max_epochs=2)
    stream = build_session_stream(maliva.database, n_sessions=3, n_steps=4, seed=5)
    stage = RecordingExecute()
    with MalivaService(
        maliva, translator=TWITTER_TRANSLATOR, stream_batch_size=5, execute=stage
    ) as service:
        assert stage.service is service
        if tier == "sync":
            served = list(service.answer_stream(iter(stream)))
        else:

            async def scenario():
                async with AsyncMalivaService(service) as front:
                    return [pair async for pair in front.answer_stream(iter(stream))]

            served = asyncio.run(scenario())
        assert [request for request, _ in served] == stream
        assert len(service.stats.records) == len(stream)
        assert service.stats.stage_seconds["execute"] > 0.0

        # One run per micro-batch, each over its own chunk, in stream order.
        n_batches = -(-len(stream) // 5)
        assert stage.events == [("run", batch) for batch in range(n_batches)]
        assert stage.batches == [
            stream[start : start + 5] for start in range(0, len(stream), 5)
        ]

        stage.events.clear()
        service.append_rows("tweets", _mutation_columns(maliva.database, 10))
        assert stage.events == [("table_invalidated", "tweets")]
    assert stage.events == [("table_invalidated", "tweets"), ("close", None)]
