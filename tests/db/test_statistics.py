"""Statistics tests: histograms must be accurate, text/spatial must err
in the PostgreSQL-like ways the reproduction depends on."""

import numpy as np
import pytest

from repro.db import (
    BoundingBox,
    Column,
    ColumnKind,
    KeywordPredicate,
    RangePredicate,
    SpatialPredicate,
    StatisticsConfig,
    Table,
    TableSchema,
    TableStatistics,
)
from repro.db.statistics import NumericColumnStats, TextColumnStats
from repro.errors import SchemaError


def stats_for(table: Table, **config_kwargs) -> TableStatistics:
    return TableStatistics(table, StatisticsConfig(**config_kwargs))


@pytest.fixture()
def skewed_table() -> Table:
    rng = np.random.default_rng(11)
    n = 5_000
    schema = TableSchema(
        "data",
        (
            Column("x", ColumnKind.FLOAT),
            Column("txt", ColumnKind.TEXT),
            Column("p", ColumnKind.POINT),
        ),
    )
    # Clustered points: 90% in a tight blob, 10% spread wide.
    blob = rng.normal(0.0, 0.5, (int(n * 0.9), 2))
    spread = rng.uniform(-50.0, 50.0, (n - len(blob), 2))
    texts = ["common word"] * (n // 2) + ["rare term"] * (n - n // 2)
    return Table(
        schema,
        {
            "x": rng.lognormal(1.0, 1.0, n),
            "txt": texts,
            "p": np.vstack([blob, spread]),
        },
    )


class TestNumericStats:
    def test_histogram_range_accuracy(self, skewed_table):
        stats = stats_for(skewed_table)
        values = skewed_table.numeric("x")
        for low, high in [(0.5, 3.0), (1.0, 10.0), (None, 2.0)]:
            predicate = RangePredicate("x", low, high)
            true_sel = predicate.mask(skewed_table).mean()
            est = stats.estimate_selectivity(predicate)
            assert est == pytest.approx(true_sel, abs=0.03)

    def test_out_of_range_is_zero(self, skewed_table):
        stats = stats_for(skewed_table)
        assert stats.estimate_selectivity(RangePredicate("x", 1e9, 2e9)) == 0.0

    def test_full_range_is_one(self, skewed_table):
        stats = stats_for(skewed_table)
        sel = stats.estimate_selectivity(RangePredicate("x", None, 1e12))
        assert sel == pytest.approx(1.0)

    def test_empty_column_raises(self):
        with pytest.raises(SchemaError):
            NumericColumnStats(np.array([]), buckets=10)


class TestTextStats:
    def test_default_flat_selectivity(self, skewed_table):
        """PostgreSQL-style: no per-token stats, frequent words wildly
        underestimated (the paper's 'covid' failure)."""
        stats = stats_for(skewed_table)  # mcv_size defaults to 0
        est_common = stats.estimate_selectivity(KeywordPredicate("txt", "common"))
        est_rare = stats.estimate_selectivity(KeywordPredicate("txt", "rare"))
        assert est_common == est_rare == StatisticsConfig().default_token_selectivity
        true_common = KeywordPredicate("txt", "common").mask(skewed_table).mean()
        assert true_common > 50 * est_common  # badly underestimated

    def test_empty_mcv_never_reads_the_tokens(self):
        """``mcv_size == 0`` keeps no list, so it must not sample, count
        and sort the tokens only to drop them (paid on every append)."""

        class Unread:
            """Packed tokens of 9 000 rows that fail on any other read."""

            n_rows = 9_000

            def __getattr__(self, name):
                raise AssertionError(f"tokens were read ({name})")

        stats = TextColumnStats(Unread(), 0, 5_000, 0.005, seed=1)
        assert stats.mcv == {}
        assert stats.selectivity_keyword("anything") == 0.005

    def test_mcv_mode_estimates_frequent_tokens(self, skewed_table):
        stats = stats_for(skewed_table, mcv_size=10)
        est = stats.estimate_selectivity(KeywordPredicate("txt", "common"))
        true_sel = KeywordPredicate("txt", "common").mask(skewed_table).mean()
        assert est == pytest.approx(true_sel, abs=0.05)

    def test_mcv_mode_unknown_token_gets_default(self, skewed_table):
        stats = stats_for(skewed_table, mcv_size=10)
        est = stats.estimate_selectivity(KeywordPredicate("txt", "nonexistent"))
        assert est == StatisticsConfig().default_token_selectivity


class TestSpatialStats:
    def test_uniform_assumption_underestimates_clusters(self, skewed_table):
        stats = stats_for(skewed_table)
        box = BoundingBox(-1.0, -1.0, 1.0, 1.0)  # covers the dense blob
        predicate = SpatialPredicate("p", box)
        true_sel = predicate.mask(skewed_table).mean()
        est = stats.estimate_selectivity(predicate)
        assert true_sel > 0.7
        assert est < 0.01  # area ratio of a tiny box in a huge extent

    def test_disjoint_box_is_zero(self, skewed_table):
        stats = stats_for(skewed_table)
        predicate = SpatialPredicate("p", BoundingBox(1e3, 1e3, 2e3, 2e3))
        assert stats.estimate_selectivity(predicate) == 0.0

    def test_full_extent_is_one(self, skewed_table):
        stats = stats_for(skewed_table)
        predicate = SpatialPredicate("p", BoundingBox(-100, -100, 100, 100))
        assert stats.estimate_selectivity(predicate) == pytest.approx(1.0)


class TestConjunction:
    def test_independence_assumption(self, skewed_table):
        stats = stats_for(skewed_table)
        p1 = RangePredicate("x", 0.5, 3.0)
        p2 = KeywordPredicate("txt", "common")
        combined = stats.estimate_conjunction((p1, p2))
        assert combined == pytest.approx(
            stats.estimate_selectivity(p1) * stats.estimate_selectivity(p2)
        )

    def test_estimate_rows_scales_by_table(self, skewed_table):
        stats = stats_for(skewed_table)
        p1 = RangePredicate("x", 0.5, 3.0)
        assert stats.estimate_rows((p1,)) == pytest.approx(
            stats.n_rows * stats.estimate_selectivity(p1)
        )

    def test_unknown_column_raises(self, skewed_table):
        stats = stats_for(skewed_table)
        with pytest.raises(SchemaError):
            stats.estimate_selectivity(RangePredicate("missing", 0.0, 1.0))
        with pytest.raises(SchemaError):
            stats.estimate_selectivity(KeywordPredicate("x", "word"))
