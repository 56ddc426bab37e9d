"""Shared assertion: a real backend answers exactly like the in-memory engine.

Used by the sqlite suite (always on) and the duckdb suite (skip-if-missing)
so both backends are pinned against the identical contract: base-table row
ids in ascending local order for row queries, BIN_ID -> weighted count for
aggregates, on a deterministic simulation profile.
"""

from __future__ import annotations

import numpy as np


def assert_matches_memory(database, backend, queries) -> None:
    for query in queries:
        expected = database.execute(query)
        actual = backend.execute(query)
        label = query.to_sql()
        if expected.bins is not None:
            assert actual.kind == "bins", label
            assert actual.bins == expected.bins, label
        else:
            assert actual.kind == "rows", label
            assert actual.row_ids is not None, label
            assert actual.row_ids.dtype == np.int64, label
            assert np.array_equal(actual.row_ids, expected.row_ids), label
