"""BackendExecute: the real-engine execute stage behind the service seam.

Acceptance pin (ISSUE): a full taxi dashboard session served through
``--backend sqlite`` answers every widget with rows/bins *identical* to
the in-memory engine on the deterministic profile — cold and warm — while
``execution_ms`` carries measured wall clock instead of virtual cost-model
milliseconds.
"""

import numpy as np
import pytest

from repro.backends import SqliteBackend, backend_profile
from repro.cli import _taxi_dashboard_stream
from repro.core.options import RewriteOptionSpace
from repro.datasets import TRIP_FILTER_ATTRIBUTES, TaxiConfig, build_taxi_database
from repro.errors import QueryError
from repro.serving import BackendExecute, MalivaService
from repro.viz import TAXI_TRANSLATOR, TWITTER_TRANSLATOR
from repro.workloads import TaxiWorkloadGenerator, TwitterWorkloadGenerator

from ..conftest import (
    TWITTER_ATTRS,
    build_session_stream,
    build_trained_maliva,
    build_twitter_db,
)


def assert_same_answers(memory_outcomes, backend_outcomes):
    assert len(memory_outcomes) == len(backend_outcomes)
    for expected, actual in zip(memory_outcomes, backend_outcomes):
        assert actual.option_label == expected.option_label
        assert actual.rewritten == expected.rewritten
        if expected.result.bins is not None:
            assert actual.result.bins == expected.result.bins
        else:
            assert np.array_equal(expected.result.row_ids, actual.result.row_ids)


@pytest.fixture(scope="module")
def backend_pair(request):
    """One trained middleware behind two services: memory and sqlite."""
    serving_maliva = request.getfixturevalue("serving_maliva")
    backend = SqliteBackend()
    backend.ingest(serving_maliva.database)
    memory = MalivaService(serving_maliva, translator=TWITTER_TRANSLATOR)
    real = MalivaService(
        serving_maliva, execute=BackendExecute(backend), translator=TWITTER_TRANSLATOR
    )
    yield memory, real
    memory.close()
    real.close()  # owns the backend


class TestStreamEquivalence:
    def test_same_rows_and_bins_as_memory(self, backend_pair, make_workload):
        memory, real = backend_pair
        stream = make_workload(11, 24)
        assert_same_answers(memory.answer_many(stream), real.answer_many(stream))

    def test_wall_clock_timing(self, backend_pair, make_workload):
        _, real = backend_pair
        outcome = real.answer_many(make_workload(5, 1))[0]
        # Virtual costs on this workload sit in the tens of ms; a local
        # sqlite probe over 6k rows measures well under that.
        assert 0.0 <= outcome.execution_ms < 1_000.0
        assert outcome.result.base_ms == outcome.execution_ms

    def test_report_backend_section(self, backend_pair, make_workload):
        _, real = backend_pair
        real.answer_many(make_workload(7, 4))
        section = real.report()["backend"]
        assert section["name"] == "sqlite"
        assert section["profile"].startswith("SQLite Backend Profile")
        assert section["n_queries"] >= 4
        assert section["wall_ms_total"] > 0.0

    def test_report_deltas_equal_outcome_sums(self, backend_pair, make_workload):
        """What the backend counted over a slice is what the slice's
        outcomes carry: every request executes exactly once, its
        ``execution_ms`` is the backend's ``wall_ms`` and its ``row_ids``
        the backend's int64 array, untouched."""
        _, real = backend_pair
        before = real.report()["backend"]
        outcomes = real.answer_many(make_workload(13, 24))
        after = real.report()["backend"]
        rows = [o.result for o in outcomes if o.result.bins is None]
        bins = [o.result for o in outcomes if o.result.bins is not None]
        assert rows and bins
        assert all(r.row_ids.dtype == np.int64 for r in rows)
        assert after["n_queries"] - before["n_queries"] == len(outcomes)
        assert after["rows_returned"] - before["rows_returned"] == sum(
            len(r.row_ids) for r in rows
        )
        assert after["rows_fetched"] - before["rows_fetched"] == len(rows) + sum(
            len(r.bins) for r in bins
        )
        assert after["wall_ms_total"] - before["wall_ms_total"] == pytest.approx(
            sum(o.execution_ms for o in outcomes)
        )

    def test_quality_fn_rejected(self, serving_maliva):
        backend = SqliteBackend()
        with pytest.raises(QueryError, match="quality"):
            MalivaService(
                serving_maliva,
                execute=BackendExecute(backend),
                quality_fn=lambda *a: 1.0,
            )
        backend.close()


def test_append_rows_reaches_the_engine():
    """Regression: the service appended to the in-memory table only, so the
    plan saw the grown table and SQLite answered from the old rows."""
    database = build_twitter_db(n_tweets=2_500, n_users=125, sample_fraction=0.05)
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    train = TwitterWorkloadGenerator(database, seed=21).generate(12)
    maliva = build_trained_maliva(database, space, train, max_epochs=3, n_train=10)
    stream = build_session_stream(database, n_sessions=3, n_steps=5)
    backend = SqliteBackend()
    backend.ingest(database)
    tweets = database.table("tweets")
    with (
        MalivaService(maliva, translator=TWITTER_TRANSLATOR) as memory,
        MalivaService(
            maliva, execute=BackendExecute(backend), translator=TWITTER_TRANSLATOR
        ) as real,
        # A second service over the same database *and* backend: each
        # appended row must still be loaded exactly once.
        MalivaService(maliva, execute=BackendExecute(backend, own_backend=False)),
    ):
        before = memory.answer_many(stream)
        # Through the service, then behind its back on the engine itself:
        # the stage ships the new rows from the invalidation hook either way.
        for offset, append_rows in ((0, real.append_rows), (8, database.append_rows)):
            # Re-post every 16th tweet under a new id: whatever matched the
            # originals matches the copies, so the answers must move.
            copies = tweets.select_rows(range(offset, 2_400, 16), "copies")
            rows = {c.name: copies.column(c.name) for c in tweets.schema.columns}
            rows["id"] = np.arange(tweets.n_rows, tweets.n_rows + 150)
            append_rows("tweets", rows)
        assert backend._run("SELECT COUNT(*) FROM tweets", ()) == [(2_800,)]
        after = memory.answer_many(stream)
        assert any(
            a.result.bins != b.result.bins
            for a, b in zip(before, after)
            if a.result.bins is not None and b.result.bins is not None
        )
        assert_same_answers(after, real.answer_many(stream))


class TestTaxiDashboardAcceptance:
    """The end-to-end pin behind ``maliva serve --backend sqlite``."""

    @pytest.fixture(scope="class")
    def taxi_maliva(self):
        profile = backend_profile("sqlite")
        database = build_taxi_database(
            TaxiConfig(n_trips=4_000, seed=11), profile=profile.sim_profile()
        )
        space = profile.prune_space(
            RewriteOptionSpace.hint_subsets(TRIP_FILTER_ATTRIBUTES),
            database.table("trips").schema,
        )
        queries = TaxiWorkloadGenerator(database, seed=3).generate(20)
        return build_trained_maliva(
            database,
            space,
            queries,
            qte="accurate",
            tau_ms=500.0,
            max_epochs=4,
            n_train=15,
        )

    def test_full_dashboard_session_cold_and_warm(self, taxi_maliva):
        # Two sessions x 8 steps: the 4 ops-dashboard widgets, each hit
        # cold and then refreshed warm (widgets cycle modulo 4).
        stream = _taxi_dashboard_stream(2, 8)
        assert len(stream) == 16
        backend = SqliteBackend()
        backend.ingest(taxi_maliva.database)
        with (
            MalivaService(taxi_maliva, translator=TAXI_TRANSLATOR) as memory,
            MalivaService(
                taxi_maliva, execute=BackendExecute(backend), translator=TAXI_TRANSLATOR
            ) as real,
        ):
            memory_outcomes = memory.answer_many(stream)
            backend_outcomes = real.answer_many(stream)
            assert_same_answers(memory_outcomes, backend_outcomes)
            # Every widget produced an actual answer (bins for heatmaps,
            # rows for scatters) and the heatmaps are non-trivial.
            kinds = {o.result.kind for o in backend_outcomes}
            assert kinds == {"rows", "bins"}
            assert any(
                o.result.bins for o in backend_outcomes if o.result.bins is not None
            )
            # The action space the planner used is the pruned one.
            labels = {o.option_label for o in backend_outcomes}
            honorable = {
                option.label() for option in taxi_maliva.space.options
            }
            assert labels <= honorable
            assert len(taxi_maliva.space) == 3  # pinned in test_profiles too
