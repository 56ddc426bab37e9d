"""Run the whole benchmark, compare two sets of runs, or smoke-test it.

    python -m perfbench [--workload NAME ...] [--seed N] [--trace]
    python -m perfbench --repeat 2
    python -m perfbench --check-repeat A.json B.json
    python -m perfbench --smoke

Each workload runs in a child process of its own (``run.py``, the command
``BENCHMARK.json`` names), one after another — the host has two cores and
the fleet workloads use both.  Exit status is non-zero if any workload's
outputs fail the check, any closed-loop request fails, or (``--repeat`` /
``--check-repeat``) any end-to-end metric differs between the two sets by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .spec import BY_NAME, OUT_DIR, ROOT, load_benchmark


def run_child(workload: str, seed: int, seconds: float, trace: bool, extra: list[str]) -> dict:
    """One ``run.py`` child; returns the record of its last stdout line."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_set(workloads: list[str], seed: int, seconds: float, trace: bool, extra: list[str]) -> dict:
    """Every workload once (twice with ``--trace``); returns the set record."""
    result: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        record = run_child(workload, seed, seconds, False, extra)
        entry = {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "end_to_end": {k: v["value"] for k, v in record["metrics"].items()},
        }
        if trace:
            traced = run_child(workload, seed, seconds, True, extra)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
        result["workloads"][workload] = entry
    return result


def failures(result: dict) -> list[str]:
    """Workloads whose outputs were wrong or whose closed-loop requests failed."""
    problems = []
    for name, entry in result["workloads"].items():
        if not entry["correct"]:
            problems.append(f"{name}: outputs differ from the reference")
        if entry["failed"] and BY_NAME[name].loop == "closed":
            problems.append(f"{name}: {entry['failed']} of {entry['attempted']} requests failed")
    return problems


def print_summary(result: dict) -> None:
    units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    names = list(units)
    print()
    print(f"{'workload':<18}" + "".join(f"{name:>16}" for name in names))
    print(f"{'':<18}" + "".join(f"{'[' + units[name] + ']':>16}" for name in names))
    for workload, entry in result["workloads"].items():
        values = entry["end_to_end"]
        print(f"{workload:<18}" + "".join(f"{values[name]:>16.5g}" for name in names))


def compare(first: dict, second: dict) -> int:
    """Per workload x end-to-end metric: both values, how much worse the
    second is than the first (as a share of the first), and the bound."""
    benchmark = load_benchmark()
    breaches = 0
    print(f"{'workload':<18}{'metric':<16}{'A':>12}{'B':>12}{'B worse by':>12}{'bound':>8}")
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        a_values = first["workloads"][workload]["end_to_end"]
        b_values = second["workloads"][workload]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = a_values[name], b_values[name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            # Two runs of one commit must *agree*: either direction counts.
            breach = abs(worse) > bound
            breaches += breach
            print(
                f"{workload:<18}{name:<16}{a:>12.5g}{b:>12.5g}{worse:>+12.1%}"
                f"{bound:>8.0%}{'  BREACH' if breach else ''}"
            )
    print(f"{breaches} breach(es); shares are of A")
    return breaches


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", action="store_true", help="also make the traced run (per-layer metrics, span files)")
    parser.add_argument("--smoke", action="store_true", help="1/20 size, 1 s, one set-up: checks outputs, not speed")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1, help="2: run two sets and compare them")
    parser.add_argument("--check-repeat", nargs=2, metavar=("A.json", "B.json"), help="compare two saved sets")
    parser.add_argument("--out", type=Path, help="where to save the set (default perfbench/out/set_<n>.json)")
    args = parser.parse_args(argv)

    if args.check_repeat:
        first, second = (json.loads(Path(path).read_text()) for path in args.check_repeat)
        return 1 if compare(first, second) else 0

    workloads = args.workload or names
    extra: list[str] = []
    seconds = args.seconds
    if args.smoke:
        extra, seconds = ["--scale", "0.05", "--setup-reps", "1"], 1.0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    sets = []
    for number in range(1, args.repeat + 1):
        result = run_set(workloads, args.seed, seconds, args.trace, extra)
        print_summary(result)
        path = args.out if args.out and args.repeat == 1 else OUT_DIR / f"set_{number}.json"
        path.write_text(json.dumps(result, indent=2))
        print(f"saved {path}")
        sets.append(result)

    problems = [problem for result in sets for problem in failures(result)]
    for problem in problems:
        print("FAILED", problem)
    breaches = compare(*sets) if len(sets) == 2 and not args.smoke else 0
    return 1 if problems or breaches else 0


if __name__ == "__main__":
    sys.exit(main())
