"""QTE tests: cost accounting, cache sharing, accuracy properties."""

import numpy as np
import pytest

from repro.core import RewriteOptionSpace
from repro.errors import EstimationError
from repro.qte import (
    AccurateQTE,
    SamplingQTE,
    SelectivityCache,
    required_attributes,
)

from ..conftest import TWITTER_ATTRS


@pytest.fixture(scope="module")
def space() -> RewriteOptionSpace:
    return RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)


@pytest.fixture(scope="module")
def rqs(request, space):
    twitter_db = request.getfixturevalue("twitter_db")
    twitter_queries = request.getfixturevalue("twitter_queries")
    return [space.build(twitter_queries[0], twitter_db, i) for i in range(len(space))]


class TestSelectivityCache:
    def test_put_get(self):
        cache = SelectivityCache()
        cache.put("text", 0.25)
        assert cache.has("text")
        assert cache.get("text") == 0.25
        assert cache.collected == {"text": 0.25}

    def test_missing(self):
        cache = SelectivityCache()
        cache.put("a", 0.1)
        assert cache.missing(frozenset({"a", "b"})) == frozenset({"b"})

    def test_rejects_invalid_selectivity(self):
        cache = SelectivityCache()
        with pytest.raises(ValueError):
            cache.put("a", 1.5)
        with pytest.raises(ValueError):
            cache.put("a", -0.1)

    def test_clear_and_len(self):
        cache = SelectivityCache()
        cache.put("a", 0.1)
        cache.put("b", 0.2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestRequiredAttributes:
    def test_full_scan_needs_nothing(self, rqs):
        assert required_attributes(rqs[0]) == frozenset()

    def test_hinted_attrs_required(self, rqs, space):
        for index, option in enumerate(space):
            assert required_attributes(rqs[index]) == option.hint_set.index_on


class TestAccurateQTE:
    def test_estimate_is_true_time(self, twitter_db, rqs):
        qte = AccurateQTE(twitter_db, unit_cost_ms=40.0)
        cache = SelectivityCache()
        outcome = qte.estimate(rqs[3], cache)
        assert outcome.estimated_ms == pytest.approx(
            twitter_db.true_execution_time_ms(rqs[3])
        )

    def test_cost_proportional_to_missing_selectivities(self, twitter_db, rqs, space):
        qte = AccurateQTE(twitter_db, unit_cost_ms=40.0, overhead_ms=2.0)
        cache = SelectivityCache()
        all_three = next(
            i for i, o in enumerate(space) if len(o.hint_set.index_on) == 3
        )
        assert qte.predict_cost_ms(rqs[all_three], cache) == pytest.approx(122.0)
        outcome = qte.estimate(rqs[all_three], cache)
        assert outcome.cost_ms == pytest.approx(122.0)
        # Everything is now cached: re-estimating any subset is overhead-only.
        for rq in rqs:
            assert qte.predict_cost_ms(rq, cache) == pytest.approx(2.0)

    def test_cache_sharing_reduces_costs(self, twitter_db, rqs, space):
        """The paper's Figure 7 transition: estimating RQ1 cheapens RQ5."""
        qte = AccurateQTE(twitter_db, unit_cost_ms=40.0, overhead_ms=0.0)
        cache = SelectivityCache()
        single = next(
            i
            for i, o in enumerate(space)
            if o.hint_set.index_on == frozenset({"coordinates"})
        )
        double = next(
            i
            for i, o in enumerate(space)
            if o.hint_set.index_on == frozenset({"coordinates", "text"})
        )
        before = qte.predict_cost_ms(rqs[double], cache)
        qte.estimate(rqs[single], cache)
        after = qte.predict_cost_ms(rqs[double], cache)
        assert before == pytest.approx(80.0)
        assert after == pytest.approx(40.0)

    def test_negative_cost_rejected(self, twitter_db):
        with pytest.raises(ValueError):
            AccurateQTE(twitter_db, unit_cost_ms=-1.0)


class TestSamplingQTE:
    @pytest.fixture(scope="class")
    def fitted(self, request, space):
        twitter_db = request.getfixturevalue("twitter_db")
        twitter_queries = request.getfixturevalue("twitter_queries")
        qte = SamplingQTE(
            twitter_db, TWITTER_ATTRS, "tweets_qte_sample", unit_cost_ms=10.0
        )
        training = [
            space.build(query, twitter_db, index)
            for query in twitter_queries[:12]
            for index in range(len(space))
        ]
        qte.fit(training)
        return qte

    def test_unfitted_estimate_raises(self, twitter_db, rqs):
        qte = SamplingQTE(twitter_db, TWITTER_ATTRS, "tweets_qte_sample")
        with pytest.raises(EstimationError):
            qte.estimate(rqs[0], SelectivityCache())

    def test_fit_on_empty_raises(self, twitter_db):
        qte = SamplingQTE(twitter_db, TWITTER_ATTRS, "tweets_qte_sample")
        with pytest.raises(EstimationError):
            qte.fit([])

    def test_fit_reports_rmse(self, fitted):
        assert fitted.is_fitted
        assert fitted.training_rmse_log is not None
        assert fitted.training_rmse_log < 1.5

    def test_estimates_are_positive_and_ordered(self, fitted, twitter_db, rqs):
        """On the noiseless profile the model must at least rank a cheap
        plan below a full scan for a selective query."""
        cache = SelectivityCache()
        estimates = [fitted.estimate(rq, cache).estimated_ms for rq in rqs]
        assert all(e > 0 for e in estimates)

    def test_log_accuracy_reasonable(self, fitted, twitter_db, space, request):
        twitter_queries = request.getfixturevalue("twitter_queries")
        errors = []
        for query in twitter_queries[12:20]:
            cache = SelectivityCache()
            for index in range(len(space)):
                rq = space.build(query, twitter_db, index)
                estimate = fitted.estimate(rq, cache).estimated_ms
                truth = twitter_db.true_execution_time_ms(rq)
                errors.append(abs(np.log1p(estimate) - np.log1p(truth)))
        assert float(np.mean(errors)) < 1.2

    def test_cheaper_than_accurate(self, fitted, twitter_db, rqs):
        accurate = AccurateQTE(twitter_db)
        cache_a = SelectivityCache()
        cache_b = SelectivityCache()
        assert fitted.predict_cost_ms(rqs[7], cache_a) < accurate.predict_cost_ms(
            rqs[7], cache_b
        )

    def test_only_the_selectivity_memo(self, fitted, rqs):
        """Count guard: feature rows are not memoized (their key never
        repeated across requests), so the QTE reports one cache."""
        fitted.estimate(rqs[1], SelectivityCache())
        assert [stats.name for stats in fitted.cache_stats()] == ["qte_selectivity"]

    def test_estimate_collects_selectivities(self, fitted, rqs, space):
        cache = SelectivityCache()
        all_three = next(
            i for i, o in enumerate(space) if len(o.hint_set.index_on) == 3
        )
        fitted.estimate(rqs[all_three], cache)
        assert len(cache) == 3

    def test_estimate_charges_estimation_cost_ms(self, twitter_db, rqs, space, request):
        """``estimate`` prices collection as ``overhead + unit × n`` — the
        frontier's ``estimation_cost_ms`` — bit for bit, also for costs whose
        running sum would round differently (0.7 + 0.3 + 0.3 != 0.7 + 0.6)."""
        twitter_queries = request.getfixturevalue("twitter_queries")
        qte = SamplingQTE(
            twitter_db,
            TWITTER_ATTRS,
            "tweets_qte_sample",
            unit_cost_ms=0.3,
            overhead_ms=0.7,
        )
        qte.fit(
            [
                space.build(query, twitter_db, index)
                for query in twitter_queries[:4]
                for index in range(len(space))
            ]
        )
        two = next(i for i, o in enumerate(space) if len(o.hint_set.index_on) == 2)
        rewritten = rqs[two]
        cache = SelectivityCache()
        assert len(required_attributes(rewritten) - set(cache.collected)) == 2
        outcome = qte.estimate(rewritten, cache)
        assert len(cache) == 2
        assert outcome.cost_ms == qte.estimation_cost_ms(2)
        assert qte.estimation_cost_ms(2) != 0.7 + 0.3 + 0.3
