"""One workload, start to finish: set up, warm up, time, check, report.

``run.py`` is the command ``BENCHMARK.json`` names; it calls :func:`main`
here.  A run sets the stack up ``SETUP_REPS`` times (``setup_s`` is the
median; the first set-up stays alive as the *twin* the output check
replays against, the last one is measured), warms it with one untimed
slice, measures for ``--seconds``, then — outside the timed window —
replays a fixed sample on the twin and requires identical outcomes.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import statistics
import sys
import time

from . import measure
from .driver import drive_phase, drive_slice, run_closed, run_open
from .spec import (
    BY_NAME,
    CHECK_REQUESTS,
    OUT_DIR,
    SETUP_REPS,
    Workload,
    metric_units,
)
from .stacks import Stack, build_stack
from .tracing import Recorder, write_spans
from .traffic import Traffic

_now = time.perf_counter


def _warm_closed(stack: Stack, traffic: Traffic) -> None:
    """One untimed slice: caches, memos and lazy set-up reach steady state."""
    requests = traffic.take_spare(stack.workload.warmup_requests)
    append = traffic.next_append() if stack.workload.append_rows else None
    result = drive_slice(stack, requests, append=append)
    if result.error is not None:
        raise result.error


async def _warm_open(stack: Stack, traffic: Traffic) -> None:
    workload = stack.workload
    rate = workload.rates_rps[0]
    async with stack.service as tier:
        await drive_phase(tier, traffic.take_spare(workload.warmup_requests), rate)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_reps: int = SETUP_REPS,
    import_s: float = 0.0,
) -> dict:
    """Run ``workload`` once; returns the result record ``run.py`` prints."""
    recorder = Recorder() if trace else None
    closed = workload.loop == "closed"
    setup_times: list[float] = []
    twin: Stack | None = None
    twin_batches = 0
    stack: Stack | None = None
    extras: dict[str, float] = {}
    try:
        # -- set-up, several times; the last one is measured ------------
        for _rep in range(setup_reps - 1):
            started = _now()
            stack = build_stack(workload, recorder)
            traffic = Traffic(stack.maliva.database, workload, seed)
            if closed:
                _warm_closed(stack, traffic)
            else:
                asyncio.run(_warm_open(stack, traffic))
            setup_times.append(import_s + _now() - started)
            stack.close()
            if twin is None:
                # Same seed, same rows: its warm-up appended our first batch.
                twin, twin_batches = stack, len(traffic.appended)
            stack = None
            gc.collect()
        started = _now()
        stack = build_stack(workload, recorder)
        traffic = Traffic(stack.maliva.database, workload, seed)

        def set_up_done() -> None:
            setup_times.append(import_s + _now() - started)

        # -- warm-up, timed window, and the measured side of the check --
        if closed:
            _warm_closed(stack, traffic)
            set_up_done()
            untraced, traced, check_pairs = run_closed(stack, traffic, seconds, recorder)
        else:
            untraced, traced, check_pairs = asyncio.run(
                run_open(stack, traffic, seconds, recorder, set_up_done)
            )

        # -- the twin's side: same seed, [same rows,] sequential answers -
        if twin is None:
            twin = build_stack(workload)
            twin.close()
        if len(traffic.appended) > twin_batches:
            twin.maliva.database.append_rows(
                "tweets", traffic.all_appended(start=twin_batches)
            )
        unanswered = CHECK_REQUESTS - len(check_pairs)
        mismatches = unanswered + measure.count_mismatches(stack, twin, check_pairs)
        if trace:
            extras = measure.qte_sample(stack, twin, traced)
    finally:
        # Also reaps fleet workers, so their peak RSS is on the books below.
        if stack is not None:
            stack.close()

    window = untraced
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": mismatches == 0,
        "attempted": untraced.attempted + traced.attempted + CHECK_REQUESTS,
        "failed": untraced.failed + traced.failed + mismatches,
        "mismatches": mismatches,
        "n_latency_samples": len(window.latencies_s),
        "n_slices": len(window.slice_rps) or len(window.phases),
        "setup_s_reps": setup_times,
        "slice_rps": window.slice_rps,
        "phases": window.phases,
        "end_to_end": measure.end_to_end(
            workload, window, statistics.median(setup_times)
        ),
        # What report() and the outcomes give for free, over the untraced
        # window; the span-derived entries stay 0 without a traced run.
        "per_layer_untraced": measure.per_layer(
            workload, stack, untraced, untraced, [], 0, {}
        ),
        "per_layer": None,
    }
    if trace:
        spans = recorder.to_dicts()
        result["per_layer"] = measure.per_layer(
            workload, stack, untraced, traced, spans, recorder.n_explored, extras
        )
        result["traced_requests"] = traced.attempted
        result["phases_traced"] = traced.phases
        write_spans(OUT_DIR / f"trace_{workload.name}.jsonl", spans)
    return result


# ----------------------------------------------------------------------
# Command line (the contract BENCHMARK.json's command is run under)
# ----------------------------------------------------------------------
def print_result(result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON record."""
    section = "per_layer" if result["trace"] else "end_to_end"
    units = metric_units(section)
    values = result[section]
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if missing or unknown:
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: missing {missing}, "
            f"unknown {unknown}"
        )
    requests = result["traced_requests"] if result["trace"] else result["attempted"]
    print(
        f"{result['workload']}  seed={result['seed']}  {section}  "
        f"n={result['n_latency_samples']} latency samples, "
        f"{result['n_slices']} slices/phases, attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )
    for name, unit in units.items():
        line = f"  {name:<44} {values[name]:>14.6g} {unit}"
        if unit == "s" and result["trace"] and requests:
            line += f"   ({values[name] / requests * 1e6:.1f} us/request)"
        print(line)
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(record))


def main(argv: list[str] | None = None, process_started: float | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="size factor (--smoke uses 0.05)")
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS)
    args = parser.parse_args(argv)
    import_s = _now() - process_started if process_started is not None else 0.0

    workload = BY_NAME[args.workload].scaled(args.scale)
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), args.setup_reps, import_s
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"{workload.name}{suffix}.json").write_text(json.dumps(result, indent=2))
    print_result(result)
    sys.stdout.flush()
    return 0
