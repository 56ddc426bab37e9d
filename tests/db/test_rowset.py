"""RowSet: dual-representation consistency and intersection equivalence.

The executor's correctness rests on RowSet intersection being exactly
``np.intersect1d`` regardless of which representations the operands happen
to hold — these tests sweep every representation pairing over random id
sets (property-style) and pin down the edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import RowSet, intersect_all


def random_ids(rng: np.random.Generator, universe: int) -> np.ndarray:
    size = int(rng.integers(0, universe + 1))
    return np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)


def as_representation(ids: np.ndarray, universe: int, repr_kind: str) -> RowSet:
    if repr_kind == "ids":
        return RowSet.from_ids(ids.copy(), universe)
    mask = np.zeros(universe, dtype=bool)
    mask[ids] = True
    if repr_kind == "both":
        return RowSet.from_ids(ids.copy(), universe).with_mask()
    return RowSet.from_mask(mask)


@pytest.mark.parametrize("left_kind", ["ids", "mask", "both"])
@pytest.mark.parametrize("right_kind", ["ids", "mask", "both"])
def test_intersection_matches_intersect1d_for_every_representation(
    left_kind, right_kind
):
    rng = np.random.default_rng(7)
    for trial in range(25):
        universe = int(rng.integers(1, 400))
        a = random_ids(rng, universe)
        b = random_ids(rng, universe)
        expected = np.intersect1d(a, b, assume_unique=True)
        result = as_representation(a, universe, left_kind).intersect(
            as_representation(b, universe, right_kind)
        )
        np.testing.assert_array_equal(result.ids, expected)
        assert len(result) == len(expected)


def test_mask_and_ids_are_views_of_the_same_set():
    rng = np.random.default_rng(11)
    universe = 200
    ids = random_ids(rng, universe)
    from_ids = RowSet.from_ids(ids, universe)
    np.testing.assert_array_equal(np.flatnonzero(from_ids.mask), ids)
    mask = np.zeros(universe, dtype=bool)
    mask[ids] = True
    from_mask = RowSet.from_mask(mask)
    np.testing.assert_array_equal(from_mask.ids, ids)
    assert from_mask.universe == universe


def test_unsorted_input_is_normalized_on_request():
    rowset = RowSet.from_ids(np.array([5, 1, 3, 1]), 10, sorted_unique=False)
    np.testing.assert_array_equal(rowset.ids, [1, 3, 5])


def test_full_and_empty():
    full = RowSet.full(10)
    empty = RowSet.empty(10)
    assert len(full) == 10 and bool(full)
    assert len(empty) == 0 and not bool(empty)
    np.testing.assert_array_equal(full.intersect(empty).ids, [])
    np.testing.assert_array_equal(full.intersect(full).ids, np.arange(10))


def test_universe_mismatch_is_rejected():
    with pytest.raises(ValueError):
        RowSet.full(4).intersect(RowSet.full(5))


def test_needs_at_least_one_representation():
    with pytest.raises(ValueError):
        RowSet(10)


def test_intersect_all_chains_and_matches_reduce():
    rng = np.random.default_rng(3)
    universe = 300
    sets = [random_ids(rng, universe) for _ in range(4)]
    expected = sets[0]
    for other in sets[1:]:
        expected = np.intersect1d(expected, other, assume_unique=True)
    result = intersect_all(RowSet.from_ids(s, universe) for s in sets)
    np.testing.assert_array_equal(result.ids, expected)
    with pytest.raises(ValueError):
        intersect_all([])


def test_contains_is_vectorized_membership():
    rowset = RowSet.from_ids(np.array([2, 4, 8]), 10)
    np.testing.assert_array_equal(
        rowset.contains(np.array([0, 2, 3, 8])), [False, True, False, True]
    )


@pytest.mark.parametrize("repr_kind", ["ids", "mask", "both"])
def test_length_is_stored_at_construction(repr_kind):
    rng = np.random.default_rng(19)
    for _ in range(20):
        universe = int(rng.integers(1, 300))
        ids = random_ids(rng, universe)
        rowset = as_representation(ids, universe, repr_kind)
        assert len(rowset) == len(ids) and bool(rowset) == bool(len(ids))
    # A bitmap-only set does not recount its bitmap per call (the executor
    # asks for lengths twice per access path per scan).
    mask = np.ones(50, dtype=bool)
    bitmap_only = RowSet.from_mask(mask)
    mask[:] = False  # breaks the immutability contract, to prove no recount
    assert len(bitmap_only) == 50


@pytest.mark.parametrize("repr_kind", ["ids", "mask", "both"])
def test_compact_keeps_only_the_smaller_representation(repr_kind):
    rng = np.random.default_rng(23)
    for _ in range(30):
        universe = int(rng.integers(1, 400))
        ids = random_ids(rng, universe)
        rowset = as_representation(ids, universe, repr_kind)
        compact = rowset.compact()
        assert compact.nbytes == min(universe, 8 * len(ids))
        np.testing.assert_array_equal(compact.ids, ids)
        np.testing.assert_array_equal(np.flatnonzero(compact.mask), ids)
        # Deriving the other representation does not keep it.
        assert compact.nbytes == min(universe, 8 * len(ids))
        assert compact.compact() is compact
        assert rowset.with_mask().nbytes >= universe


def test_with_mask_holds_both_and_keeps_values():
    ids = np.array([1, 4, 6], dtype=np.int64)
    rowset = RowSet.from_ids(ids, 8)
    assert rowset.nbytes == 24
    dual = rowset.with_mask()
    assert dual.nbytes == 24 + 8 and dual.with_mask() is dual
    np.testing.assert_array_equal(dual.ids, ids)
    assert dual.ids is ids
    bitmap = RowSet.from_mask(np.ones(8, dtype=bool))
    assert bitmap.with_mask() is bitmap
