"""Shared infrastructure for the benchmark harness.

Every bench file is runnable two ways:

* ``python benchmarks/bench_*.py`` — prints the figure/table-shaped report;
* ``pytest benchmarks/ --benchmark-only`` — timings via pytest-benchmark.

Benches additionally emit their measurements as JSON via
:func:`emit_json` (one ``<bench>.json`` per bench under
``BENCH_RESULTS_DIR``, default ``benchmarks/results/``) — the CI
``bench-smoke`` job uploads these as workflow artifacts, giving the
repository a benchmark trajectory over time.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Any, Iterable

from repro import Prima
from repro.workloads import brep, gis, vlsi


@lru_cache(maxsize=None)
def brep_database(n_solids: int = 8, **kwargs) -> brep.BrepDatabase:
    """A cached BREP database (treat as read-only across benches)."""
    return brep.generate(Prima(), n_solids=n_solids, **kwargs)


@lru_cache(maxsize=None)
def vlsi_database(n_cells: int = 24) -> vlsi.VlsiDatabase:
    return vlsi.generate(n_cells=n_cells)


@lru_cache(maxsize=None)
def gis_database(rows: int = 4, cols: int = 4) -> gis.GisDatabase:
    return gis.generate(rows=rows, cols=cols)


def emit_json(name: str, payload: dict[str, Any]) -> str:
    """Write one bench's measurements to ``<results dir>/<name>.json``.

    The directory comes from ``BENCH_RESULTS_DIR`` (default
    ``benchmarks/results/`` next to this file); the path written to is
    returned and echoed so CI logs show where the artifact landed.
    """
    directory = os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
    )
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    print(f"\n[json] {path}")
    return path


def print_header(title: str, subtitle: str = "") -> None:
    print()
    print("=" * 72)
    print(title)
    if subtitle:
        print(subtitle)
    print("=" * 72)


def print_table(headers: list[str], rows: Iterable[Iterable[Any]],
                widths: list[int] | None = None) -> None:
    rows = [list(map(_fmt, row)) for row in rows]
    if widths is None:
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def cold_buffer(db: Prima) -> None:
    """Flush and drop every buffered page so the next access pays I/O."""
    db.storage.flush()
    buffer = db.storage.buffer
    frames = getattr(buffer, "_frames", None)
    if frames is None:       # partitioned buffer
        for part in buffer._parts.values():  # noqa: SLF001
            _drop_frames(part)
        return
    _drop_frames(buffer)


def _drop_frames(buffer) -> None:
    for pid in list(buffer._frames):  # noqa: SLF001
        frame = buffer._frames.pop(pid)  # noqa: SLF001
        buffer._used_bytes -= frame.page.size  # noqa: SLF001
        buffer.policy.on_evict(pid)
