"""Every dataset setup builds at tiny scale and serves its own workload."""

import pytest

from repro.experiments import TINY, dataset_setup

MAIN_TABLES = {"twitter": "tweets", "taxi": "trips", "tpch": "lineitem"}
MAIN_ROWS = {
    "twitter": TINY.twitter_rows,
    "taxi": TINY.taxi_rows,
    "tpch": TINY.tpch_rows,
}


@pytest.mark.parametrize("name", sorted(MAIN_TABLES))
def test_dataset_setup_serves_held_out_queries(name):
    setup = dataset_setup(name, TINY, seed=0)
    assert setup.database.table(MAIN_TABLES[name]).n_rows == MAIN_ROWS[name]
    assert setup.split.train and setup.split.validation and setup.split.evaluation
    for query in setup.split.validation[:3]:
        result = setup.database.execute(query)
        assert result.execution_ms >= 0.0
        assert result.result_size >= 0
