"""Rewrite options Ω and rewritten-query construction (Definitions 2.1/2.2).

A :class:`RewriteOption` is a (query-hint set, approximation-rule set) pair;
a :class:`RewriteOptionSpace` is the predefined set Ω = {RO_1, ...} the MDP
agent chooses actions from.  Factory methods build the spaces the paper
evaluates: all 2^m index-hint subsets for selection queries, the
(2^m − 1) × 3 join space of Section 7.5, and hint × approximation-rule
compositions for the quality-aware rewriters of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

from ..db import ApproximationRule, Database, HintSet, SelectQuery, apply_hints
from ..db.query import JOIN_METHODS
from ..errors import QueryError


@dataclass(frozen=True)
class RewriteOption:
    """One rewriting option: hints plus zero or more approximation rules."""

    hint_set: HintSet
    rules: tuple[ApproximationRule, ...] = ()

    @property
    def is_approximate(self) -> bool:
        return bool(self.rules)

    def label(self) -> str:
        label = self.hint_set.label()
        for rule in self.rules:
            label += f"+{rule.label()}"
        return label

    def build(self, query: SelectQuery, database: Database) -> SelectQuery:
        """Apply this option to an original query, yielding the RQ.

        The hint set is projected onto the query's actual filter attributes:
        a space built for (text, created_at, coordinates) also serves
        requests that only filter on two of them (a hint for an absent
        attribute is meaningless and dropped, as a real hint-injecting
        middleware would).  A hint-only option attaches the projected hints
        directly — they always pass :func:`~repro.db.query.apply_hints`
        validation, and this runs once per explored option on the planning
        hot path; approximation rules take the validated path.
        """
        hints = HintSet(
            index_on=frozenset(self.hint_set.index_on & set(query.filter_attributes)),
            join_method=self.hint_set.join_method if query.is_join else None,
        )
        if not self.rules:
            return SelectQuery(
                table=query.table,
                predicates=query.predicates,
                output=query.output,
                group_by=query.group_by,
                join=query.join,
                limit=query.limit,
                hints=hints,
            )
        rewritten = query
        for rule in self.rules:
            rewritten = rule.apply(rewritten, database)
        return apply_hints(rewritten, hints)


class RewriteOptionSpace:
    """The ordered, fixed set of rewrite options an agent can explore."""

    def __init__(
        self, options: Sequence[RewriteOption], attributes: Sequence[str]
    ) -> None:
        if not options:
            raise QueryError("a rewrite-option space cannot be empty")
        self.options: tuple[RewriteOption, ...] = tuple(options)
        #: Canonical main-table filter attributes (drives QTE featurization).
        self.attributes: tuple[str, ...] = tuple(attributes)
        labels = [o.label() for o in self.options]
        if len(set(labels)) != len(labels):
            raise QueryError("duplicate rewrite options in space")

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self) -> Iterable[RewriteOption]:
        return iter(self.options)

    def option(self, index: int) -> RewriteOption:
        return self.options[index]

    def labels(self) -> list[str]:
        return [o.label() for o in self.options]

    def build(self, query: SelectQuery, database: Database, index: int) -> SelectQuery:
        return self.options[index].build(query, database)

    @property
    def hint_only_indices(self) -> tuple[int, ...]:
        """Indices of options without approximation rules."""
        return tuple(
            i for i, option in enumerate(self.options) if not option.is_approximate
        )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def hint_subsets(cls, attributes: Sequence[str]) -> "RewriteOptionSpace":
        """All 2^m use/not-use index combinations (paper Figure 4)."""
        options = [
            RewriteOption(HintSet(index_on=frozenset(subset)))
            for subset in _subsets(tuple(attributes))
        ]
        return cls(options, attributes)

    @classmethod
    def join_space(
        cls,
        attributes: Sequence[str],
        join_methods: Sequence[str] = JOIN_METHODS,
        include_no_index: bool = False,
    ) -> "RewriteOptionSpace":
        """Index combinations × join methods (Section 7.5: 7 × 3 = 21).

        The paper's join experiment uses the 7 non-empty index subsets of 3
        attributes; pass ``include_no_index=True`` for all 2^m subsets.
        """
        subsets = [
            s
            for s in _subsets(tuple(attributes))
            if include_no_index or s
        ]
        options = [
            RewriteOption(HintSet(index_on=frozenset(subset), join_method=method))
            for subset in subsets
            for method in join_methods
        ]
        return cls(options, attributes)

    @classmethod
    def with_rules(
        cls,
        base: "RewriteOptionSpace",
        rule_sets: Sequence[tuple[ApproximationRule, ...]],
        hint_sets: Sequence[HintSet] | None = None,
    ) -> "RewriteOptionSpace":
        """Extend a hint space with approximation options (Section 6).

        By default each rule set is combined with the empty hint set (the
        database plans the approximate query itself); pass ``hint_sets`` to
        build full hint × rule products as in the paper's Figure 11.
        """
        hints = tuple(hint_sets) if hint_sets is not None else (HintSet(),)
        extra = [
            RewriteOption(hint_set, tuple(rules))
            for rules in rule_sets
            for hint_set in hints
        ]
        return cls(tuple(base.options) + tuple(extra), base.attributes)

    @classmethod
    def approximation_only(
        cls,
        attributes: Sequence[str],
        rule_sets: Sequence[tuple[ApproximationRule, ...]],
        hint_sets: Sequence[HintSet] | None = None,
    ) -> "RewriteOptionSpace":
        """A space of approximate options only (stage 2 of the 2-stage rewriter)."""
        hints = tuple(hint_sets) if hint_sets is not None else (HintSet(),)
        options = [
            RewriteOption(hint_set, tuple(rules))
            for rules in rule_sets
            for hint_set in hints
        ]
        return cls(options, attributes)


def _subsets(items: tuple[str, ...]) -> Iterable[tuple[str, ...]]:
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
