"""Benchmark regression gate: compare BENCH_*.json runs, fail on collapse.

CI calls this after regenerating benchmark reports: the previous run's
artifacts (or the committed repo baselines) are compared metric-by-metric
against the fresh ones, a markdown diff table goes to the job summary, and
the gate fails when a key throughput regresses by more than the threshold
(default 30%).

Enforcement is deliberately conservative — wall-clock numbers only mean
something when the scales match and the workload is big enough to rise
over runner noise, so a metric is *enforced* only when both payloads
declare the same non-``tiny`` scale (``workload.scale``).  Everything else
is still reported, as context.

Usage::

    python -m repro.experiments.bench_gate --baseline . --current bench-current
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

#: Higher-is-better throughput metrics gated per BENCH file ("." nests).
KEY_METRICS: dict[str, tuple[str, ...]] = {
    "BENCH_serving.json": (
        "cold_qps",
        "warm_qps",
        "sharded.cold_qps",
        "sharded.warm_qps",
        "degraded_mode.degraded_qps",
        "pipelined_stream.async_qps",
        "replicated_failover.surviving_qps",
        "real_backend.sqlite_qps",
    ),
    "BENCH_planning.json": (
        "cold_batched_qps",
        "cold_sequential_qps",
        "pipeline.cold_pipeline_qps",
    ),
    "BENCH_execution.json": ("cold_batched_qps", "cold_sequential_qps"),
    "BENCH_training.json": (
        "epoch.lockstep_epochs_per_s",
        "epoch.reference_epochs_per_s",
    ),
}

DEFAULT_THRESHOLD = 0.30

#: Within-run ratio floors, checked on the *current* run alone.  Unlike
#: the cross-run throughput comparisons these are machine-independent
#: (both sides of the ratio ran on the same host seconds apart), so they
#: are enforced even under ``--advisory`` — only a ``tiny`` scale (or a
#: missing entry) downgrades them to info-only.
RATIO_FLOORS: dict[str, dict[str, float]] = {
    "BENCH_serving.json": {
        # Graceful degradation: a fleet with 1-of-N shards breaker-retired
        # must keep at least 65% of the healthy fleet's throughput.
        "degraded_mode.degraded_over_healthy": 0.65,
        # Async pipelined serving: overlapping plan(N+1) with execute(N)
        # must never fall below the synchronous drain of the same stream.
        "pipelined_stream.async_over_sync": 1.0,
        # Replicated router failover: losing 1-of-2 routers mid-stream
        # (journal replay + breaker retirement included in the window)
        # must keep at least 40% of the healthy fleet's throughput.
        "replicated_failover.surviving_over_healthy": 0.40,
    },
}

#: Minimum host CPUs for a floor to be *enforced* (info-only below).
#: Ratios that measure overlap need real parallelism: on a 1-2 core host
#: the worker processes and the planning router time-slice one another,
#: so the ratio reflects scheduler luck rather than the pipeline.
FLOOR_MIN_CPUS: dict[str, int] = {
    "pipelined_stream.async_over_sync": 4,
    "replicated_failover.surviving_over_healthy": 4,
}


@dataclass(frozen=True)
class MetricComparison:
    """One gated metric, compared across two benchmark runs."""

    file: str
    metric: str
    baseline: float | None
    current: float | None
    baseline_scale: str | None
    current_scale: str | None
    threshold: float

    @property
    def ratio(self) -> float | None:
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline

    @property
    def enforced(self) -> bool:
        """Comparable runs only: same declared scale, and not tiny."""
        return (
            self.baseline is not None
            and self.current is not None
            and self.baseline_scale is not None
            and self.baseline_scale == self.current_scale
            and self.baseline_scale != "tiny"
        )

    @property
    def regressed(self) -> bool:
        ratio = self.ratio
        return self.enforced and ratio is not None and ratio < 1.0 - self.threshold

    @property
    def status(self) -> str:
        if self.baseline is None or self.current is None:
            return "missing"
        if not self.enforced:
            return "info-only"
        return "REGRESSED" if self.regressed else "ok"


@dataclass(frozen=True)
class FloorCheck:
    """One within-run ratio, checked against its absolute floor."""

    file: str
    metric: str
    value: float | None
    scale: str | None
    floor: float
    #: Host CPUs declared by the metric's section (``cpu_count``).
    cpus: int | None = None
    #: Floor enforced only when the host has at least this many CPUs.
    min_cpus: int = 1

    @property
    def enforced(self) -> bool:
        if self.value is None or self.scale in (None, "tiny"):
            return False
        if self.min_cpus > 1 and (self.cpus is None or self.cpus < self.min_cpus):
            return False
        return True

    @property
    def failed(self) -> bool:
        return self.enforced and self.value is not None and self.value < self.floor

    @property
    def status(self) -> str:
        if self.value is None:
            return "missing"
        if not self.enforced:
            return "info-only"
        return "BELOW FLOOR" if self.failed else "ok"


def _lookup(payload: dict, dotted: str) -> float | None:
    node: object = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _scale_of(payload: dict, dotted: str = "") -> str | None:
    """The scale governing one metric: innermost enclosing section wins.

    Sections of a BENCH file can be produced by different benchmark runs
    (CI writes the tiny-scale ``sharded`` section into the small-scale
    serving report), so a nested section's own ``scale`` overrides the
    file-level ``workload.scale``.
    """
    scale: object = None
    workload = payload.get("workload")
    if isinstance(workload, dict) and "scale" in workload:
        scale = workload["scale"]
    elif "scale" in payload:
        scale = payload["scale"]
    node: object = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            break
        node = node[part]
        if isinstance(node, dict) and "scale" in node:
            scale = node["scale"]
    return None if scale is None else str(scale)


def _cpus_of(payload: dict, dotted: str = "") -> int | None:
    """The host CPU count governing one metric: innermost section wins."""
    cpus: object = payload.get("cpu_count")
    node: object = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            break
        node = node[part]
        if isinstance(node, dict) and "cpu_count" in node:
            cpus = node["cpu_count"]
    return int(cpus) if isinstance(cpus, (int, float)) else None


def _load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def compare_dirs(
    baseline_dir: Path,
    current_dir: Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[MetricComparison]:
    """Compare every gated metric present in either run."""
    rows: list[MetricComparison] = []
    for file_name, metrics in KEY_METRICS.items():
        baseline = _load(Path(baseline_dir) / file_name)
        current = _load(Path(current_dir) / file_name)
        if baseline is None and current is None:
            continue
        for metric in metrics:
            base_value = None if baseline is None else _lookup(baseline, metric)
            cur_value = None if current is None else _lookup(current, metric)
            if base_value is None and cur_value is None:
                continue
            rows.append(
                MetricComparison(
                    file=file_name,
                    metric=metric,
                    baseline=base_value,
                    current=cur_value,
                    baseline_scale=(
                        None if baseline is None else _scale_of(baseline, metric)
                    ),
                    current_scale=(
                        None if current is None else _scale_of(current, metric)
                    ),
                    threshold=threshold,
                )
            )
    return rows


def check_floors(
    current_dir: Path,
    floors: dict[str, dict[str, float]] | None = None,
) -> list[FloorCheck]:
    """Check the current run's within-run ratios against their floors."""
    checks: list[FloorCheck] = []
    for file_name, metrics in (floors or RATIO_FLOORS).items():
        payload = _load(Path(current_dir) / file_name)
        for metric, floor in metrics.items():
            value = None if payload is None else _lookup(payload, metric)
            if payload is None:
                continue
            checks.append(
                FloorCheck(
                    file=file_name,
                    metric=metric,
                    value=value,
                    scale=_scale_of(payload, metric),
                    floor=floor,
                    cpus=_cpus_of(payload, metric),
                    min_cpus=FLOOR_MIN_CPUS.get(metric, 1),
                )
            )
    return checks


def render_floors(checks: list[FloorCheck]) -> str:
    """The within-run floor table (appended to the job summary)."""
    lines = [
        "### Within-run ratio floors",
        "",
        "Machine-independent ratios from this run alone; enforced at any "
        "non-tiny scale, advisory or not (overlap ratios additionally "
        "require a multi-CPU host).",
        "",
        "| file | metric | value | floor | status |",
        "|---|---|---:|---:|---|",
    ]
    for check in checks:
        value = "—" if check.value is None else f"{check.value:.2f}"
        status = check.status
        if status == "BELOW FLOOR":
            status = f"❌ {status}"
        elif status == "ok":
            status = f"✅ {status}"
        lines.append(
            f"| {check.file} | {check.metric} | {value} | "
            f"{check.floor:.2f} | {status} |"
        )
    failures = [check for check in checks if check.failed]
    lines.append("")
    if failures:
        lines.append(f"**{len(failures)} ratio(s) below their floor.**")
    elif checks:
        lines.append("All within-run ratios above their floors.")
    else:
        lines.append("No within-run ratios reported.")
    return "\n".join(lines)


def render_markdown(rows: list[MetricComparison], threshold: float) -> str:
    """The job-summary diff table."""
    lines = [
        "## Benchmark regression gate",
        "",
        f"Fails when an enforced metric drops more than {threshold:.0%} "
        "(enforced = same declared non-tiny scale on both sides).",
        "",
        "| file | metric | baseline | current | change | status |",
        "|---|---|---:|---:|---:|---|",
    ]

    def fmt(value: float | None) -> str:
        return "—" if value is None else f"{value:,.1f}"

    for row in rows:
        ratio = row.ratio
        change = "—" if ratio is None else f"{(ratio - 1.0) * 100.0:+.1f}%"
        status = row.status
        if status == "REGRESSED":
            status = f"❌ {status}"
        elif status == "ok":
            status = f"✅ {status}"
        lines.append(
            f"| {row.file} | {row.metric} | {fmt(row.baseline)} | "
            f"{fmt(row.current)} | {change} | {status} |"
        )
    regressions = [row for row in rows if row.regressed]
    lines.append("")
    if regressions:
        lines.append(
            f"**{len(regressions)} regression(s) beyond the "
            f"{threshold:.0%} threshold.**"
        )
    elif rows:
        lines.append("No enforced regressions.")
    else:
        lines.append("No comparable benchmark reports found.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_gate", description="BENCH_*.json regression gate"
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="directory holding the previous run's BENCH_*.json files",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="directory holding this run's BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional drop that fails the gate (default 0.30)",
    )
    parser.add_argument(
        "--summary-path",
        default=None,
        help="append the markdown table here (default: $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions without failing — for baselines from a "
        "different machine (e.g. the committed repo fallback), where "
        "absolute throughput is not comparable",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        print("error: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    rows = compare_dirs(
        Path(args.baseline), Path(args.current), threshold=args.threshold
    )
    floors = check_floors(Path(args.current))
    markdown = render_markdown(rows, args.threshold)
    if floors:
        markdown += "\n\n" + render_floors(floors)
    if args.advisory:
        markdown += (
            "\n\n_Advisory run: baseline comes from a different environment; "
            "regressions are reported but do not fail the job.  Within-run "
            "ratio floors are still enforced._"
        )
    print(markdown)
    summary_path = args.summary_path or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(markdown + "\n")
    floor_failed = any(check.failed for check in floors)
    if args.advisory:
        return 1 if floor_failed else 0
    return 1 if floor_failed or any(row.regressed for row in rows) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
