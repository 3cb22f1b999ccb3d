"""``compare A.json B.json``: did B regress against A?

Both files are ``run`` outputs of this harness.  One row per (workload,
end-to-end metric): both medians, the ratio B/A (A is the base), and a
verdict.  The spread within the better half of A's own passes (or
set-ups) stands in for run-to-run noise: when it is wider than the metric's
bound the row is *unresolved* — neither a pass nor a regression.
"""

from __future__ import annotations

import json
from typing import Any

from . import stats
from .measure import END_TO_END


def verdict(name: str, base: float, other: float,
            base_passes: list[float]) -> str:
    """``better`` / ``worse`` / ``within bound`` / ``unresolved``."""
    _unit, better, bound = END_TO_END[name]
    if stats.better_half_spread(base_passes, better) > bound:
        return "unresolved"
    change = other / base - 1.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within bound"


def compare(base: dict[str, Any], other: dict[str, Any]) -> list[dict]:
    """Rows for every (workload, metric) present in both runs."""
    theirs = {w["workload"]: w for w in other["workloads"]}
    rows = []
    for ours in base["workloads"]:
        match = theirs.get(ours["workload"])
        if match is None:
            continue
        for name in END_TO_END:
            a, b = ours["metrics"][name], match["metrics"][name]
            rows.append({
                "workload": ours["workload"], "metric": name,
                "unit": END_TO_END[name][0], "base": a, "other": b,
                "ratio": b / a,
                "verdict": verdict(name, a, b, ours["passes"][name]),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':22s} {'metric':10s} {'A (base)':>12s} "
             f"{'B':>12s} {'B/A':>7s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:10s} "
            f"{row['base']:12.4f} {row['other']:12.4f} "
            f"{row['ratio']:7.3f}  {row['verdict']} ({row['unit']})")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    """Print the table; non-zero when any row is ``worse``."""
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        other = json.load(handle)
    rows = compare(base, other)
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "worse", "within bound", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0
