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
    """The local stage, logging ``(hook, batch number)`` per call."""

    def __init__(self) -> None:
        self.events: list[tuple[str, object]] = []
        self._batches: dict[int, int] = {}

    def begin(self, planned):
        batch = self._batches.setdefault(id(planned), len(self._batches))
        self.events.append(("begin", batch))
        return batch

    async def wait(self, state):
        self.events.append(("wait", state))
        await super().wait(state)

    def finish(self, planned):
        self.events.append(("finish", planned.state))
        return super().finish(planned)

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
        n_batches = -(-len(stream) // 5)
        assert service.stats.stage_seconds["execute"] > 0.0

        # begin -> [wait ->] finish, exactly once per micro-batch; only the
        # async tier awaits.
        expected = ["begin", "finish"]
        if tier == "async":
            expected.insert(1, "wait")
        for batch in range(n_batches):
            assert [hook for hook, arg in stage.events if arg == batch] == expected
        # The overlap never runs ahead of the stage: batch N+1 begins only
        # once batch N-1 has finished.
        at = {event: position for position, event in enumerate(stage.events)}
        for batch in range(2, n_batches):
            assert at[("begin", batch)] > at[("finish", batch - 2)]

        stage.events.clear()
        service.append_rows("tweets", _mutation_columns(maliva.database, 10))
        assert stage.events == [("table_invalidated", "tweets")]
    assert stage.events[1:] == [("close", None)]
