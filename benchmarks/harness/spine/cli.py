"""Command lines: the driver's one-workload entry and the matrix tools.

``run.py --workload W --seed N --seconds S --trace 0|1`` is what
BENCHMARK.json names: one workload, every metric printed by name, and the
result object as the last line.  ``python benchmarks/harness run`` drives
all six workloads with their passes interleaved, ``... run --trace`` is
the separate traced run, ``... selfcheck`` and ``... compare A B`` are
described in their modules.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from . import compare, ladder, selfcheck
from .measure import END_TO_END, measure
from .workloads import WORKLOADS

DEFAULT_SEED = 1987
#: Seconds one workload is measured for (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 15
#: Where trace and result files go unless ``--out`` says otherwise.
OUT_DIR = Path(__file__).resolve().parents[1] / "out"


def _write(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {path}")


def print_end_to_end(result: dict[str, Any]) -> None:
    print(f"{result['workload']}  (seed {result['seed']}; {result['size']})")
    print(f"  operations attempted {result['attempted']}, failed "
          f"{result['failed']}, timed {result['timed_ops']}")
    if result["first_error"]:
        print(f"  first failure: {result['first_error']}")
    for name, value in result["metrics"].items():
        unit, better, bound = END_TO_END[name]
        print(f"  {name:<12s} {value:12.4f} {unit:<4s} "
              f"({better} is better, bound {bound:.0%})")
    if "p50_all_ms" in result:
        print(f"  {'p50_all_ms':<12s} {result['p50_all_ms']:12.4f} ms   "
              f"(all {result['timed_ops']} timed ops; not gated)")
    if "tail_ms" in result:
        print(f"  {'tail_ms':<12s} {result['tail_ms']:12.4f} ms   "
              f"(p{result['tail_percentile']:g}; not gated)")
    print(f"  {'peak_rss_mb':<12s} {result['peak_rss_mb']:12.1f} MB   "
          f"(not gated)")


def print_layers(result: dict[str, Any]) -> None:
    print(f"{result['workload']}  (seed {result['seed']}; "
          f"{result['rounds']} rounds of {result['ops_per_round']} ops; "
          f"replays attempted {result['attempted']}, failed "
          f"{result['failed']})")
    if result["first_error"]:
        print(f"  first failure: {result['first_error']}")
    rungs = "  <=  ".join(f"{rung} {ms:.4f}"
                          for rung, ms in result["rung_median_ms"].items())
    print(f"  ladder (ms/op): {rungs}"
          f"{'' if result['monotonic'] else '   NOT MONOTONIC'}")
    for name, value in result["metrics"].items():
        print(f"  {name:<34s} {value:14.4f} {ladder.LAYER_METRICS[name][0]}")
    for name, value in result["modelled"].items():
        print(f"  modelled: {name:<24s} {value:14.4f} ms  "
              f"(simulated device, not this machine)")


def _result_line(result: dict[str, Any],
                 units: dict[str, str]) -> dict[str, Any]:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def bench_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="measure one workload (BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, trace = ladder.climb(workload, args.seed, args.seconds)
        print_layers(result)
        _write(OUT_DIR / f"trace.{workload.name}.json", trace)
        units = {name: unit
                 for name, (unit, _b) in ladder.LAYER_METRICS.items()}
    else:
        (result,) = measure([workload], args.seed, args.seconds)
        print_end_to_end(result)
        units = {name: unit for name, (unit, _b, _bd) in END_TO_END.items()}
        if not result["metrics"]:
            print("no operation succeeded: nothing to report")
            return 1
    print(json.dumps(_result_line(result, units)))
    return 0


def run_main(args: argparse.Namespace) -> int:
    workloads = list(WORKLOADS.values())
    seconds = RUN_SECONDS / 5 if args.quick else RUN_SECONDS
    out = Path(args.out)
    if args.trace:
        results, traces = [], []
        for workload in workloads:
            result, trace = ladder.climb(workload, args.seed, seconds)
            print_layers(result)
            results.append(result)
            traces.append(trace)
        _write(out / "layers.json", {"seed": args.seed, "seconds": seconds,
                                     "workloads": results})
        _write(out / "trace.json", {"seed": args.seed, "workloads": traces})
        broken = [r["workload"] for r in results if not r["monotonic"]]
        if broken:
            print(f"ladder not monotonic on: {', '.join(broken)}")
    else:
        results = measure(workloads, args.seed, seconds,
                          **({"passes": 1, "setups": 1} if args.quick else {}))
        for result in results:
            print_end_to_end(result)
        _write(out / "run.json", {"seed": args.seed, "seconds": seconds,
                                  "quick": args.quick, "workloads": results})
        broken = []
    failed = sum(r["failed"] for r in results)
    if failed:
        print(f"{failed} operations failed")
    return 1 if failed or broken else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/harness",
        description="PRIMA measurement spine (see README.md)")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="measure the workload matrix end to end")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--quick", action="store_true",
                     help="one pass, one set-up, a fifth of the time")
    run.add_argument("--trace", action="store_true",
                     help="the traced run: per-layer ladder + trace.json")
    run.add_argument("--out", default=str(OUT_DIR))
    check = commands.add_parser(
        "selfcheck", help="inject a decode_atom slowdown; is it caught "
                          "and booked to the access layer?")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    diff = commands.add_parser(
        "compare", help="compare two run.json files")
    diff.add_argument("base")
    diff.add_argument("other")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_main(args)
    if args.command == "selfcheck":
        return selfcheck.main(args.seed)
    return compare.main(args.base, args.other)
