"""Shared infrastructure for the paper-reproduction benches.

Every bench file is runnable two ways:

* ``python benchmarks/bench_*.py`` — prints the figure/table-shaped report;
* ``pytest benchmarks/ --benchmark-only`` — timings via pytest-benchmark.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable

from repro import Prima
from repro.workloads import brep, vlsi


@lru_cache(maxsize=None)
def brep_database(n_solids: int = 8, **kwargs) -> brep.BrepDatabase:
    """A cached BREP database (treat as read-only across benches)."""
    return brep.generate(Prima(), n_solids=n_solids, **kwargs)


@lru_cache(maxsize=None)
def vlsi_database(n_cells: int = 24) -> vlsi.VlsiDatabase:
    return vlsi.generate(n_cells=n_cells)


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
