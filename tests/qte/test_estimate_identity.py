"""Bit-identity of the planning estimates against the pinned numpy math.

The Approximate-QTE builds its feature row from plain floats, and the
statistics estimate range and box selectivities with ``bisect`` and
``min``/``max`` instead of ``np.searchsorted``/``np.clip``.  Neither may
move a single bit: every estimate here is compared with ``float.hex`` (or
the array's bytes) against ``tests/qte/_reference.py``.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core import RewriteOptionSpace
from repro.datasets import TaxiConfig, build_taxi_database
from repro.db import BoundingBox, SimProfile
from repro.db.statistics import NumericColumnStats, SpatialColumnStats
from repro.qte import SamplingQTE, SelectivityCache
from repro.workloads import (
    TaxiWorkloadGenerator,
    TwitterJoinWorkloadGenerator,
    TwitterWorkloadGenerator,
)

from ..conftest import QTE_SAMPLE, TWITTER_ATTRS
from ._reference import (
    ReferenceNumericStats,
    reference_estimate,
    reference_feature_vector,
    reference_selectivity_box,
)

TAXI_ATTRS = ("pickup_datetime", "trip_distance", "pickup_coordinates")


def _bits(value) -> str:
    return float(value).hex()


def _subsets(items):
    return [s for r in range(len(items) + 1) for s in combinations(items, r)]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _numeric_columns() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(4)
    return {
        "continuous": rng.lognormal(1.0, 1.0, 3_000),
        # Few distinct values: many duplicate histogram boundaries.
        "duplicates": rng.integers(0, 6, 3_000).astype(np.float64),
        "integers": np.arange(1_000, dtype=np.int64) * 7,
        "constant": np.full(200, 3.5),
    }


def _probes(boundaries: list[float]) -> list:
    """Every boundary, its float neighbours, midpoints, integers, values
    beyond both ends, and the unbounded side."""
    probes: list = [None, boundaries[0] - 1.0, boundaries[-1] + 1.0]
    for left, right in zip(boundaries, boundaries[1:]):
        probes.append((left + right) / 2.0)
    for b in boundaries:
        below, above = np.nextafter(b, -np.inf).item(), np.nextafter(b, np.inf).item()
        probes += [b, below, above, int(b)]
    return probes


@pytest.mark.parametrize("column", sorted(_numeric_columns()))
def test_selectivity_range_matches_numpy_reference(column):
    values = _numeric_columns()[column]
    buckets = 10
    stats = NumericColumnStats(values, buckets)
    expected = np.quantile(values, np.linspace(0.0, 1.0, buckets + 1))
    assert all(type(b) is float for b in stats.boundaries)
    assert np.asarray(stats.boundaries).tobytes() == expected.tobytes()
    reference = ReferenceNumericStats(expected)
    assert (_bits(stats.min), _bits(stats.max)) == (
        _bits(reference.min),
        _bits(reference.max),
    )
    probes = _probes(stats.boundaries)
    for low in probes:
        for high in probes:
            got = stats.selectivity_range(low, high)
            assert type(got) is float
            assert _bits(got) == _bits(reference.selectivity_range(low, high)), (
                low,
                high,
            )


@pytest.mark.parametrize(
    "points",
    [
        np.random.default_rng(6).uniform(-20.0, 20.0, (500, 2)),
        np.full((50, 2), 1.5),  # zero-area extent
        np.column_stack([np.full(50, 2.0), np.linspace(0.0, 9.0, 50)]),  # a line
    ],
    ids=["spread", "point", "line"],
)
def test_selectivity_box_matches_numpy_reference(points):
    stats = SpatialColumnStats(points)
    extent = stats.extent
    rng = np.random.default_rng(8)
    x0, y0, x1, y1 = extent.min_x, extent.min_y, extent.max_x, extent.max_y
    boxes = [
        extent,
        BoundingBox(x0 - 1, y0 - 1, x1 + 1, y1 + 1),
        BoundingBox(x1 + 1, y1 + 1, x1 + 2, y1 + 2),
        # Touching one edge: a zero-area overlap.
        BoundingBox(x1, y0, x1 + 3, y1),
        BoundingBox(x0, y0, x0, y0),
    ]
    for _ in range(200):
        xs = np.sort(rng.uniform(x0 - 2, x1 + 2, 2)).tolist()
        ys = np.sort(rng.uniform(y0 - 2, y1 + 2, 2)).tolist()
        boxes.append(BoundingBox(xs[0], ys[0], xs[1], ys[1]))
    for box in boxes:
        got = stats.selectivity_box(box)
        assert type(got) is float
        assert _bits(got) == _bits(reference_selectivity_box(extent, box)), box


# ----------------------------------------------------------------------
# Approximate-QTE estimates
# ----------------------------------------------------------------------
def _fitted_case(database, attributes, sample, space, queries):
    """``(fitted QTE, option space, queries)`` for one workload."""
    qte = SamplingQTE(database, attributes, sample)
    qte.fit(
        [
            space.build(query, database, i)
            for query in queries[:5]
            for i in range(len(space))
        ]
    )
    return qte, space, queries


@pytest.fixture(scope="module")
def twitter_case(twitter_db):
    generator = TwitterWorkloadGenerator(twitter_db, seed=5, heatmap_fraction=0.4)
    queries = generator.generate(10)
    queries += [query.with_limit(40) for query in queries[:3]]
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    return _fitted_case(twitter_db, TWITTER_ATTRS, QTE_SAMPLE, space, queries)


@pytest.fixture(scope="module")
def taxi_case():
    database = build_taxi_database(
        TaxiConfig(n_trips=3_000, seed=7), profile=SimProfile.deterministic()
    )
    database.create_sample_table("trips", 0.05, name="trips_qte_sample", seed=3)
    queries = TaxiWorkloadGenerator(database, seed=9).generate(10)
    space = RewriteOptionSpace.hint_subsets(TAXI_ATTRS)
    return _fitted_case(database, TAXI_ATTRS, "trips_qte_sample", space, queries)


@pytest.fixture(scope="module")
def join_case(twitter_db):
    queries = TwitterJoinWorkloadGenerator(twitter_db, seed=8).generate(6)
    space = RewriteOptionSpace.join_space(TWITTER_ATTRS)
    return _fitted_case(twitter_db, TWITTER_ATTRS, QTE_SAMPLE, space, queries)


@pytest.mark.parametrize("case", ["twitter_case", "taxi_case", "join_case"])
def test_estimate_matches_reference_for_every_collected_subset(request, case):
    qte, space, queries = request.getfixturevalue(case)
    n_checked = 0
    for query in queries:
        by_column = {p.column: p for p in query.predicates}
        for collected in _subsets(tuple(by_column)):
            selectivities = {
                column: qte._sample_selectivity(by_column[column])
                for column in collected
            }
            for index in range(len(space)):
                rewritten = space.build(query, qte._db, index)
                ours, theirs = SelectivityCache(), SelectivityCache()
                for column, selectivity in selectivities.items():
                    ours.put(column, selectivity)
                    theirs.put(column, selectivity)
                features = qte.feature_vector(rewritten, ours)
                expected = reference_feature_vector(qte, rewritten, theirs)
                assert features.dtype == expected.dtype
                assert features.tobytes() == expected.tobytes(), rewritten
                got = qte.estimate(rewritten, ours)
                want = reference_estimate(qte, rewritten, theirs)
                assert _bits(got.estimated_ms) == _bits(want.estimated_ms), rewritten
                assert _bits(got.cost_ms) == _bits(want.cost_ms), rewritten
                assert ours.collected == theirs.collected
                n_checked += 1
    assert n_checked >= len(queries) * len(space)
