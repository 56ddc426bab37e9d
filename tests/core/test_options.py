"""Rewrite-option space tests."""

import pytest

from repro.core import RewriteOption, RewriteOptionSpace
from repro.db import HintSet, LimitRule, apply_hints
from repro.errors import QueryError
from repro.workloads import TwitterJoinWorkloadGenerator

from ..conftest import TWITTER_ATTRS


class TestHintSubsets:
    def test_size_is_power_of_two(self):
        assert len(RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)) == 8
        assert len(RewriteOptionSpace.hint_subsets(TWITTER_ATTRS[:2])) == 4
        four = TWITTER_ATTRS + ("users_statues_count",)
        assert len(RewriteOptionSpace.hint_subsets(four)) == 16

    def test_first_option_is_no_index(self):
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        assert space.option(0).hint_set.index_on == frozenset()

    def test_labels_unique(self):
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        assert len(set(space.labels())) == len(space)

    def test_all_hint_only(self):
        space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        assert space.hint_only_indices == tuple(range(8))


class TestJoinSpace:
    def test_paper_size_21(self):
        space = RewriteOptionSpace.join_space(TWITTER_ATTRS)
        assert len(space) == 21  # (2^3 - 1) non-empty subsets x 3 methods

    def test_include_no_index(self):
        space = RewriteOptionSpace.join_space(TWITTER_ATTRS, include_no_index=True)
        assert len(space) == 24

    def test_every_option_has_join_method(self):
        space = RewriteOptionSpace.join_space(TWITTER_ATTRS)
        assert all(o.hint_set.join_method is not None for o in space)


class TestWithRules:
    def test_extends_base(self):
        base = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        rules = [(LimitRule(0.01),), (LimitRule(0.1),)]
        extended = RewriteOptionSpace.with_rules(base, rules)
        assert len(extended) == 10
        assert extended.hint_only_indices == tuple(range(8))
        assert extended.option(8).is_approximate

    def test_hint_rule_product(self):
        base = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS[:1])
        rules = [(LimitRule(0.01),)]
        hints = [HintSet(), HintSet(frozenset({TWITTER_ATTRS[0]}))]
        extended = RewriteOptionSpace.with_rules(base, rules, hint_sets=hints)
        assert len(extended) == 4

    def test_approximation_only(self):
        space = RewriteOptionSpace.approximation_only(
            TWITTER_ATTRS, [(LimitRule(0.01),), (LimitRule(0.1),)]
        )
        assert len(space) == 2
        assert space.hint_only_indices == ()


class TestBuild:
    def test_build_applies_hints(self, twitter_db, twitter_queries, hint_space):
        query = twitter_queries[0]
        for index, option in enumerate(hint_space):
            rewritten = hint_space.build(query, twitter_db, index)
            assert rewritten.hints is not None
            assert rewritten.hints.index_on == option.hint_set.index_on

    def test_hint_only_build_equals_validated_path(self, twitter_db, twitter_queries):
        """A hint-only option attaches its projected hints directly; the
        result equals what ``apply_hints`` (the validated path) returns."""
        joins = TwitterJoinWorkloadGenerator(twitter_db, seed=8).generate(4)
        spaces = [
            RewriteOptionSpace.hint_subsets(TWITTER_ATTRS),
            RewriteOptionSpace.join_space(TWITTER_ATTRS, include_no_index=True),
        ]
        for query in [*twitter_queries[:6], *joins]:
            present = set(query.filter_attributes)
            for space in spaces:
                for option in space:
                    hints = HintSet(
                        index_on=frozenset(option.hint_set.index_on & present),
                        join_method=(
                            option.hint_set.join_method if query.is_join else None
                        ),
                    )
                    assert option.build(query, twitter_db) == apply_hints(query, hints)

    def test_build_applies_rules_then_hints(self, twitter_db, twitter_queries):
        base = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
        extended = RewriteOptionSpace.with_rules(base, [(LimitRule(0.05),)])
        rewritten = extended.build(twitter_queries[0], twitter_db, len(extended) - 1)
        assert rewritten.limit is not None
        assert rewritten.hints is not None

    def test_option_label_includes_rule(self):
        option = RewriteOption(HintSet(), (LimitRule(0.05),))
        assert option.label().endswith("+limit5%")

    def test_empty_space_raises(self):
        with pytest.raises(QueryError):
            RewriteOptionSpace([], TWITTER_ATTRS)

    def test_duplicate_labels_raise(self):
        option = RewriteOption(HintSet())
        with pytest.raises(QueryError):
            RewriteOptionSpace([option, option], TWITTER_ATTRS)
