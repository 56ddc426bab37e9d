"""Table 3: difficulty inventories for 16- and 32-option workloads.
Benchmarks rewritten-query construction over the 32-option space."""

from _bench_utils import SCALE, SEED, bench_rounds, emit

from repro.experiments import run_table3, twitter_setup


def test_table3_workloads(benchmark):
    result = run_table3(SCALE, seed=SEED)
    emit(result.render())

    setup = twitter_setup(SCALE, n_attributes=5, seed=SEED)
    query = setup.split.evaluation[0]
    benchmark.pedantic(
        lambda: [
            setup.space.build(query, setup.database, i)
            for i in range(len(setup.space))
        ],
        rounds=bench_rounds(),
        iterations=1,
    )
    assert "32 options" in result.rows
