"""Dataset-scale benchmark: taxi and TPC-H builders at generator size.

The nightly ``REPRO_BENCH_SCALE=medium`` CI job runs this module at the
scale tier's full generator sizes (300k taxi trips, 250k lineitem rows) —
the first step of the ROADMAP "dataset-scale benchmarks" item.  It times
the builders (dataset synthesis + index + statistics construction), checks
the catalogs serve their workload generators, and reports the memory
footprint per dataset (columnar bytes via ``Table.memory_bytes`` plus the
process's peak RSS), so scaling regressions in the index/batch kernels
surface before they matter.

Writes ``BENCH_datasets.json`` (repo root); at tiny/small scale the same
module doubles as a fast smoke test of the builders.
"""

import json
import resource
import sys
import time

from _bench_utils import SCALE, SEED, bench_file, emit

from repro.experiments.setups import dataset_setup


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / scale


def _profile_dataset(name: str) -> dict:
    started = time.perf_counter()
    setup = dataset_setup(name, SCALE, seed=SEED)
    build_s = time.perf_counter() - started
    database = setup.database
    tables = {
        table_name: {
            "rows": database.table(table_name).n_rows,
            "memory_mb": database.table(table_name).memory_bytes() / 1e6,
        }
        for table_name in database.table_names
    }
    # The catalog must actually serve its workload: execute a few held-out
    # queries end to end (plan + scan + aggregate).
    probes = list(setup.split.validation[:3]) or list(setup.split.train[:3])
    assert probes, "dataset setup produced an empty workload split"
    probe_started = time.perf_counter()
    for query in probes:
        result = database.execute(query)
        assert result.execution_ms >= 0.0
    probe_s = time.perf_counter() - probe_started
    return {
        "build_seconds": build_s,
        "probe_seconds": probe_s,
        "n_probe_queries": len(probes),
        "n_workload_queries": len(setup.split.train)
        + len(setup.split.validation)
        + len(setup.split.evaluation),
        "memory_mb": sum(entry["memory_mb"] for entry in tables.values()),
        "tables": tables,
    }


def test_dataset_builders_at_scale():
    reports = {}
    lines = [f"dataset builders at scale={SCALE.name}"]
    for name, main_table, expected_rows in (
        ("taxi", "trips", SCALE.taxi_rows),
        ("tpch", "lineitem", SCALE.tpch_rows),
    ):
        report = _profile_dataset(name)
        assert report["tables"][main_table]["rows"] == expected_rows
        assert report["memory_mb"] > 0.0
        report["main_table"] = main_table
        reports[name] = report
        lines.append(
            f"  {name:<5}: {expected_rows:>9,} {main_table} rows, "
            f"built in {report['build_seconds']:6.2f}s, "
            f"memory footprint {report['memory_mb']:8.1f} MB"
        )

    payload = {
        "scale": SCALE.name,
        "seed": SEED,
        "peak_rss_mb": _peak_rss_mb(),
        **reports,
    }
    bench_file("BENCH_datasets.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )
    lines.append(f"  peak process RSS: {payload['peak_rss_mb']:.1f} MB")
    emit("\n".join(lines))
