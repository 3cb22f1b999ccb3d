"""Shared plumbing of the B-series benches.

Every ``bench_b*`` used to hand-roll the same steps: the client
threads, the ``REGRESSIONS:`` trailer, and the ``emit_json`` call.
This module owns them once — and
:func:`emit_bench` additionally embeds a ``metrics_report()`` snapshot
(counters + gauges + histograms, see :mod:`repro.obs`) in every bench
JSON, so the CI artifacts carry the latency/batch-size distributions of
the run next to the figures.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from common import emit_json

import repro


def run_clients(manager: Any, jobs: Sequence[Callable[[Any], Any]],
                names: Sequence[str] | None = None) -> list[Any]:
    """Run every job on its own thread over its own
    ``repro.connect(manager)`` connection; results in job order, the
    first failure (by job index) re-raised."""
    def client(job: Callable[[Any], Any], name: str | None) -> Any:
        with repro.connect(manager, name=name) as connection:
            return job(connection)

    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(client, jobs, names or [None] * len(jobs)))


def print_regressions(regressions: Iterable[str]) -> None:
    """The CI-gated trailer: one line per regression marker (silent
    when the list is empty — ``check_regressions.py`` reads the JSON,
    this print is for humans)."""
    regressions = list(regressions)
    if regressions:
        print("\nREGRESSIONS:")
        for marker in regressions:
            print(f"  - {marker}")


def emit_bench(name: str, payload: dict[str, Any], db: Any = None,
               regressions: Iterable[str] | None = None) -> str:
    """Emit one bench's JSON with the shared trimmings.

    ``regressions`` (when given) is printed and stored under the
    ``"regressions"`` key ``check_regressions.py`` gates on; ``db``
    (a :class:`~repro.db.Prima` or a cluster) contributes its
    ``metrics_report()`` under ``"metrics"`` so every artifact carries
    the run's metric distributions.
    """
    if regressions is not None:
        regressions = list(regressions)
        payload["regressions"] = regressions
        print_regressions(regressions)
    if db is not None and hasattr(db, "metrics_report"):
        payload["metrics"] = db.metrics_report()
    return emit_json(name, payload)
