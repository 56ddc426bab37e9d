"""BackendProfile: markdown parsing and action-space pruning contracts.

The pinned pruning counts here are the acceptance criterion that the MDP
action space is *provably* restricted to what the active backend can
honor — for both the sqlite and duckdb profiles, on both dashboards'
attribute sets.
"""

import pytest

from repro.backends import (
    BackendError,
    BackendProfile,
    backend_profile,
    duckdb_profile,
    memory_profile,
    sqlite_profile,
)
from repro.core.options import RewriteOption, RewriteOptionSpace
from repro.datasets.nyc_taxi import trips_schema
from repro.db import HintSet
from repro.db.database import EngineProfile, SimProfile
from repro.db.types import ColumnKind

TWITTER_ATTRS = ("text", "created_at", "coordinates")
TAXI_ATTRS = ("pickup_datetime", "trip_distance", "pickup_coordinates")


@pytest.fixture(scope="module")
def tweets_schema(request):
    twitter_db = request.getfixturevalue("twitter_db")
    return twitter_db.table("tweets").schema


class TestMarkdownParsing:
    def test_sqlite_capabilities(self):
        profile = sqlite_profile()
        assert profile.name == "sqlite"
        assert profile.title.startswith("SQLite Backend Profile")
        assert profile.hint_dialect == "indexed-by"
        assert profile.honored_index_kinds == frozenset(
            {ColumnKind.INT, ColumnKind.FLOAT, ColumnKind.TIMESTAMP}
        )
        assert profile.max_index_hints == 1
        assert profile.honored_join_methods == frozenset({"nestloop"})
        assert profile.sim_hint_ignore_prob == 0.0
        assert profile.sim_noise_sigma == 0.0
        assert "reference backend" in profile.briefing

    def test_duckdb_capabilities(self):
        profile = duckdb_profile()
        assert profile.hint_dialect == "none"
        assert profile.honored_index_kinds == frozenset()
        assert profile.max_index_hints == 0
        assert profile.honored_join_methods == frozenset()
        assert profile.sim_hint_ignore_prob == 1.0

    def test_memory_capabilities(self):
        profile = memory_profile()
        assert profile.max_index_hints is None  # "unlimited"
        assert ColumnKind.POINT in profile.honored_index_kinds
        assert profile.honored_join_methods == frozenset(
            {"nestloop", "hash", "merge"}
        )

    def test_strengths_and_gaps_parsed(self):
        profile = sqlite_profile()
        assert [s.id for s in profile.strengths] == [
            "MANDATORY_HINTS",
            "ROWID_ORDER",
            "NATIVE_BINNING",
            "CHEAP_WARM_STARTS",
        ]
        assert all(s.summary and s.note for s in profile.strengths)
        gaps = {g.id: g for g in profile.gaps}
        assert set(gaps) == {
            "SINGLE_INDEX_SCAN",
            "NO_SPATIAL_OR_TEXT_PATHS",
            "NESTLOOP_ONLY",
        }
        assert gaps["SINGLE_INDEX_SCAN"].severity == "HIGH"
        assert gaps["NESTLOOP_ONLY"].severity == "MEDIUM"
        assert all(g.what and g.why and g.hunt for g in profile.gaps)

    def test_missing_capability_key_raises(self):
        broken = "# Title\n\n### Capabilities\n\n| hint-dialect | none |\n"
        with pytest.raises(BackendError, match="honored-index-kinds"):
            BackendProfile.from_markdown("broken", broken)

    def test_missing_title_raises(self):
        with pytest.raises(BackendError, match="title=False"):
            BackendProfile.from_markdown("broken", "no heading here")

    def test_registry(self):
        assert backend_profile("sqlite") is sqlite_profile()
        assert backend_profile("duckdb") is duckdb_profile()
        assert backend_profile("memory") is memory_profile()
        with pytest.raises(BackendError, match="unknown backend profile"):
            backend_profile("oracle")


class TestHonorsHintSet:
    def test_numeric_hint_honored(self, tweets_schema):
        profile = sqlite_profile()
        assert profile.honors_hint_set(
            HintSet(frozenset({"created_at"})), tweets_schema
        )

    def test_text_and_point_hints_rejected(self, tweets_schema):
        profile = sqlite_profile()
        assert not profile.honors_hint_set(
            HintSet(frozenset({"text"})), tweets_schema
        )
        assert not profile.honors_hint_set(
            HintSet(frozenset({"coordinates"})), tweets_schema
        )

    def test_max_index_hints_cap(self, tweets_schema):
        profile = sqlite_profile()
        two = HintSet(frozenset({"created_at", "text"}))
        assert not profile.honors_hint_set(two, tweets_schema)
        assert memory_profile().honors_hint_set(two, tweets_schema)

    def test_unknown_column_rejected(self, tweets_schema):
        assert not sqlite_profile().honors_hint_set(
            HintSet(frozenset({"nope"})), tweets_schema
        )

    def test_join_method_gate(self, tweets_schema):
        profile = sqlite_profile()
        assert profile.honors_hint_set(HintSet(join_method="nestloop"), tweets_schema)
        assert not profile.honors_hint_set(HintSet(join_method="hash"), tweets_schema)
        assert not duckdb_profile().honors_hint_set(
            HintSet(join_method="nestloop"), tweets_schema
        )

    def test_empty_hint_set_always_honored(self, tweets_schema):
        for profile in (sqlite_profile(), duckdb_profile(), memory_profile()):
            assert profile.honors_hint_set(HintSet(), tweets_schema)


class TestPruneSpace:
    """Pinned action-space sizes per backend × dashboard (acceptance)."""

    def prune_labels(self, profile, attributes, schema):
        space = RewriteOptionSpace.hint_subsets(attributes)
        pruned = profile.prune_space(space, schema)
        assert pruned.attributes == space.attributes
        return [option.hint_set.label() for option in pruned.options]

    def test_sqlite_on_taxi(self):
        labels = self.prune_labels(sqlite_profile(), TAXI_ATTRS, trips_schema())
        # 8 subsets -> no-hint + the two single numeric-kind hints; the
        # POINT attribute and every multi-hint subset are unhonorable.
        assert labels == [
            "idx[no-index]",
            "idx[pickup_datetime]",
            "idx[trip_distance]",
        ]

    def test_sqlite_on_twitter(self, tweets_schema):
        labels = self.prune_labels(sqlite_profile(), TWITTER_ATTRS, tweets_schema)
        assert labels == ["idx[no-index]", "idx[created_at]"]

    def test_duckdb_prunes_to_bare_option(self, tweets_schema):
        for attributes, schema in (
            (TAXI_ATTRS, trips_schema()),
            (TWITTER_ATTRS, tweets_schema),
        ):
            labels = self.prune_labels(duckdb_profile(), attributes, schema)
            assert labels == ["idx[no-index]"]

    def test_memory_keeps_everything(self, tweets_schema):
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        pruned = memory_profile().prune_space(space, tweets_schema)
        assert len(pruned) == len(space) == 8

    def test_fallback_when_nothing_survives(self, tweets_schema):
        # A space with no no-hint option degenerates to the bare option so
        # planning still functions on a hint-less engine.
        space = RewriteOptionSpace(
            (RewriteOption(HintSet(frozenset({"text"}))),), ("text",)
        )
        pruned = duckdb_profile().prune_space(space, tweets_schema)
        assert [o.hint_set for o in pruned.options] == [HintSet()]


class TestSimProfileDerivation:
    def test_sqlite_sim_is_deterministic(self):
        sim = sqlite_profile().sim_profile()
        assert isinstance(sim, SimProfile)
        assert sim.name == "sim-sqlite"
        assert sim.hint_ignore_prob == 0.0
        assert sim.noise_sigma == 0.0

    def test_duckdb_sim_never_credits_hints(self):
        sim = duckdb_profile().sim_profile()
        assert sim.hint_ignore_prob == 1.0


class TestSimProfileRename:
    def test_engine_profile_alias_still_works(self):
        assert EngineProfile is SimProfile
        assert SimProfile.deterministic().name == SimProfile.deterministic().name
        from repro.db import EngineProfile as exported_alias
        from repro.db import SimProfile as exported_new

        assert exported_alias is exported_new
