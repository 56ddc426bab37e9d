"""Optimizer tests: hint obedience, cost-based enumeration, estimation."""

import math
from collections import Counter

import pytest

from repro.db import (
    BoundingBox,
    HintSet,
    JoinSpec,
    KeywordPredicate,
    RangePredicate,
    SelectQuery,
    SpatialPredicate,
    TableStatistics,
    apply_hints,
)
from repro.db.optimizer import derive_counters
from repro.db.plans import PhysicalPlan, ScanPlan, AccessPath, JoinStep
from repro.errors import PlanningError


def rows_query(**kwargs) -> SelectQuery:
    defaults = dict(
        table="rows",
        predicates=(
            KeywordPredicate("note", "alpha"),
            RangePredicate("value", 10.0, 60.0),
            SpatialPredicate("spot", BoundingBox(-5, -5, 5, 5)),
        ),
        output=("id",),
    )
    defaults.update(kwargs)
    return SelectQuery(**defaults)


class TestHintedPlanning:
    def test_hint_determines_access_paths(self, small_db):
        for attrs in (frozenset(), frozenset({"value"}), frozenset({"value", "note"})):
            query = apply_hints(rows_query(), HintSet(attrs))
            plan = small_db.explain(query)
            assert {a.predicate.column for a in plan.scan.access} == attrs
            assert {p.column for p in plan.scan.residual} == {
                "note",
                "value",
                "spot",
            } - attrs

    def test_hint_on_unindexed_column_raises(self, small_db):
        query = rows_query(
            predicates=(RangePredicate("id", 0, 10),), output=("id",)
        ).with_hints(HintSet(frozenset({"id"})))
        with pytest.raises(PlanningError):
            small_db.explain(query)

    def test_explain_without_obeying_hints_ignores_them(self, small_db):
        hinted = apply_hints(rows_query(), HintSet(frozenset()))
        free = small_db.explain(hinted, obey_hints=False)
        chosen = small_db.explain(rows_query())
        assert free.describe() == chosen.describe()


class TestCostBasedChoice:
    def test_picks_minimum_estimated_cost(self, small_db):
        query = rows_query()
        chosen = small_db.explain(query)
        # Enumerate all hinted alternatives; none may beat the chosen
        # plan's *estimated* cost.
        attrs = ["note", "value", "spot"]
        import itertools

        for r in range(len(attrs) + 1):
            for subset in itertools.combinations(attrs, r):
                candidate = small_db.explain(
                    apply_hints(query, HintSet(frozenset(subset)))
                )
                assert chosen.estimated_cost_ms <= candidate.estimated_cost_ms + 1e-9

    def test_estimates_are_populated(self, small_db):
        plan = small_db.explain(rows_query())
        assert math.isfinite(plan.estimated_cost_ms)
        assert math.isfinite(plan.estimated_rows)

    def test_plan_features_shape(self, small_db):
        plan = small_db.explain(rows_query())
        features = plan.features()
        assert features["has_join"] == 0.0
        assert set(plan.feature_names()) == set(features)


class TestJoinPlanning:
    def test_join_method_hint_obeyed(self, twitter_db):
        query = SelectQuery(
            table="tweets",
            predicates=(KeywordPredicate("text", "covid"),),
            output=("id",),
            join=JoinSpec(
                "users", "user_id", "id", (RangePredicate("tweet_cnt", 10, 50),)
            ),
        )
        for method in ("nestloop", "hash", "merge"):
            hinted = apply_hints(query, HintSet(frozenset({"text"}), method))
            plan = twitter_db.explain(hinted)
            assert plan.join is not None
            assert plan.join.method == method

    def test_unhinted_join_gets_a_method(self, twitter_db):
        query = SelectQuery(
            table="tweets",
            predicates=(KeywordPredicate("text", "covid"),),
            output=("id",),
            join=JoinSpec("users", "user_id", "id", ()),
        )
        plan = twitter_db.explain(query)
        assert plan.join is not None
        assert plan.join.method in ("nestloop", "hash", "merge")


JOIN_QUERY = SelectQuery(
    table="tweets",
    predicates=(KeywordPredicate("text", "covid"),),
    output=("id",),
    join=JoinSpec("users", "user_id", "id", (RangePredicate("tweet_cnt", 10, 50),)),
)


class TestStatisticsOncePerPlan:
    """Count guard: one ``plan()`` call reads each distinct predicate's
    statistics at most once, however many candidate plans (index subsets,
    join methods) it costs."""

    @pytest.fixture()
    def estimated(self, monkeypatch):
        keys: list[tuple] = []
        real = TableStatistics.estimate_selectivity

        def counted(self, predicate):
            keys.append(predicate.key())
            return real(self, predicate)

        monkeypatch.setattr(TableStatistics, "estimate_selectivity", counted)
        return keys

    @staticmethod
    def _assert_once_each(estimated: list, n_distinct: int) -> None:
        counts = Counter(estimated)
        assert len(counts) == n_distinct
        assert max(counts.values()) == 1, counts
        estimated.clear()

    def test_hinted_plan(self, small_db, twitter_db, estimated):
        for attrs in ((), ("value",), ("value", "note"), ("note", "value", "spot")):
            hinted = apply_hints(rows_query(), HintSet(frozenset(attrs)))
            small_db._optimizer.plan(hinted)
            self._assert_once_each(estimated, 3)
        # No join-method hint: all three methods are costed, then the pick.
        hinted = apply_hints(JOIN_QUERY, HintSet(frozenset({"text"})))
        twitter_db._optimizer.plan(hinted)
        self._assert_once_each(estimated, 2)

    def test_unhinted_best_plan(self, small_db, twitter_db, estimated):
        small_db._optimizer.plan(rows_query())  # 2^3 index subsets
        self._assert_once_each(estimated, 3)
        twitter_db._optimizer.plan(JOIN_QUERY)  # index subsets x join methods
        self._assert_once_each(estimated, 2)


class TestDeriveCounters:
    def _plan(self, access_cols=(), residual_cols=("a",), limit=None):
        preds = {c: RangePredicate(c, 0.0, 1.0) for c in set(access_cols) | set(residual_cols)}
        return PhysicalPlan(
            scan=ScanPlan(
                "t",
                tuple(AccessPath(preds[c], "btree") for c in access_cols),
                tuple(preds[c] for c in residual_cols),
            ),
            limit=limit,
        )

    def test_full_scan_counts_all_rows(self):
        counters, out = derive_counters(
            self._plan(),
            n_rows=1000,
            selectivity=lambda p: 0.1,
            inner_rows=None,
            inner_selectivity=None,
        )
        assert counters.seq_rows == 1000
        assert out == pytest.approx(100.0)

    def test_index_scan_counts(self):
        counters, out = derive_counters(
            self._plan(access_cols=("a", "b"), residual_cols=("c",)),
            n_rows=1000,
            selectivity=lambda p: 0.1,
            inner_rows=None,
            inner_selectivity=None,
        )
        assert counters.index_probes == 2
        assert counters.index_entries == pytest.approx(200.0)
        assert counters.intersect_entries == pytest.approx(200.0)
        assert counters.fetched_rows == pytest.approx(10.0)
        assert counters.residual_checks == pytest.approx(10.0)
        assert out == pytest.approx(1.0)

    def test_limit_scales_counters(self):
        unlimited, out_full = derive_counters(
            self._plan(),
            n_rows=1000,
            selectivity=lambda p: 0.5,
            inner_rows=None,
            inner_selectivity=None,
        )
        limited, out_lim = derive_counters(
            self._plan(limit=50),
            n_rows=1000,
            selectivity=lambda p: 0.5,
            inner_rows=None,
            inner_selectivity=None,
        )
        assert out_full == pytest.approx(500.0)
        assert out_lim == pytest.approx(50.0)
        assert limited.seq_rows == pytest.approx(unlimited.seq_rows * 0.1)

    def test_join_methods_count_differently(self):
        base = self._plan(access_cols=("a",), residual_cols=())
        results = {}
        for method in ("nestloop", "hash", "merge"):
            plan = PhysicalPlan(
                scan=base.scan,
                join=JoinStep(method, "u", "fk", "id", (RangePredicate("z", 0, 1),)),
            )
            counters, out = derive_counters(
                plan,
                n_rows=1000,
                selectivity=lambda p: 0.1,
                inner_rows=500,
                inner_selectivity=lambda p: 0.2,
            )
            results[method] = counters
            assert out == pytest.approx(100.0 * 0.2)
        assert results["nestloop"].join_probe_rows == pytest.approx(100.0)
        assert results["hash"].join_build_rows == pytest.approx(100.0)
        assert results["hash"].seq_rows == pytest.approx(500.0)
        assert results["merge"].sort_work > 0
