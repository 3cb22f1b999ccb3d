"""Semantic parallelism: decomposition, conflicts, simulated scheduling
(paper, section 4; [HHM86]).

One user operation decomposes into per-molecule units of work (DUs).
The DUs run one after another on the caller's thread, each measuring
its cost (atom reads) and read/write sets; the multiprocessor PRIMA of
section 4 is simulated by :mod:`repro.parallel.scheduler`, which
list-schedules those measured costs onto P processors under the
decomposition-level conflict edges."""

from repro.parallel.decompose import SemanticDecomposer, UnitOfWork
from repro.parallel.scheduler import (
    ScheduleReport,
    ScheduledUnit,
    build_conflict_edges,
    simulate,
)
from repro.parallel.api import ParallelQueryResult, parallel_select

__all__ = [
    "ParallelQueryResult",
    "ScheduleReport",
    "ScheduledUnit",
    "SemanticDecomposer",
    "UnitOfWork",
    "build_conflict_edges",
    "parallel_select",
    "simulate",
]
