"""Deterministic multi-processor scheduling of units of work.

The paper proposes multi-processor PRIMA architectures in which decomposed
units of work (DUs) are scheduled and executed concurrently by the DBMS.
This module substitutes the planned multi-processor hardware with a
deterministic discrete-event simulation: each DU carries
a measured service time; the scheduler assigns ready DUs to the first free
of P simulated processors, honouring conflict edges (conflicting DUs are
serialised in index order, preserving the single-user operation's
semantics).

Outputs are the quantities the parallelism claim is about: serial time,
parallel makespan, speedup, efficiency, and a per-processor trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import DecompositionError
from repro.parallel.decompose import UnitOfWork


@dataclass(frozen=True)
class ScheduledUnit:
    """One DU's placement in the simulated schedule."""

    unit_index: int
    processor: int
    start: float
    finish: float


@dataclass
class ScheduleReport:
    """Result of simulating one decomposed operation on P processors."""

    processors: int
    unit_count: int
    serial_time: float
    makespan: float
    schedule: list[ScheduledUnit] = field(default_factory=list)
    conflict_edges: int = 0

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0

    @property
    def efficiency(self) -> float:
        return self.speedup / self.processors if self.processors else 0.0

    def explain(self) -> str:
        return (f"{self.unit_count} DUs on {self.processors} processors: "
                f"serial {self.serial_time:.0f} -> makespan "
                f"{self.makespan:.0f} cost units, speedup "
                f"{self.speedup:.2f}x, efficiency {self.efficiency:.2f}, "
                f"{self.conflict_edges} conflict edge(s)")


def build_conflict_edges(units: list[UnitOfWork]) -> list[tuple[int, int]]:
    """All pairs (i < j) of units conflicting at decomposition level."""
    edges: list[tuple[int, int]] = []
    for i, first in enumerate(units):
        if not first.write_set:
            # read-only units never conflict with other read-only units;
            # check only against writers.
            for j in range(i + 1, len(units)):
                second = units[j]
                if second.write_set and first.conflicts_with(second):
                    edges.append((i, j))
        else:
            for j in range(i + 1, len(units)):
                if first.conflicts_with(units[j]):
                    edges.append((i, j))
    return edges


def simulate(units: list[UnitOfWork], processors: int) -> ScheduleReport:
    """List-schedule the DUs onto ``processors`` simulated processors.

    Conflicting DUs are ordered by index (the decomposition order), which
    keeps the simulated execution equivalent to the serial one.  Ready
    units are dispatched greedily to the earliest-free processor.
    """
    if processors < 1:
        raise DecompositionError("need at least one processor")
    edges = build_conflict_edges(units)
    blockers: dict[int, set[int]] = {u.index: set() for u in units}
    for i, j in edges:
        blockers[j].add(i)

    finish_time: dict[int, float] = {}
    #: (free_at, processor) min-heap.
    free_at: list[tuple[float, int]] = [(0.0, p) for p in range(processors)]
    heapq.heapify(free_at)
    pending = sorted(units, key=lambda u: u.index)
    scheduled: list[ScheduledUnit] = []
    clock_guard = 0

    while pending:
        clock_guard += 1
        if clock_guard > 10 * len(units) + 100:
            raise DecompositionError("scheduler failed to make progress")
        progressed = False
        remaining: list[UnitOfWork] = []
        for unit in pending:
            ready_at = 0.0
            ready = True
            for blocker in blockers[unit.index]:
                if blocker not in finish_time:
                    ready = False
                    break
                ready_at = max(ready_at, finish_time[blocker])
            if not ready:
                remaining.append(unit)
                continue
            free_time, processor = heapq.heappop(free_at)
            start = max(free_time, ready_at)
            finish = start + unit.cost
            finish_time[unit.index] = finish
            heapq.heappush(free_at, (finish, processor))
            scheduled.append(ScheduledUnit(unit.index, processor, start,
                                           finish))
            progressed = True
        if not progressed and remaining:
            raise DecompositionError("conflict cycle among units of work")
        pending = remaining

    serial_time = sum(unit.cost for unit in units)
    makespan = max((s.finish for s in scheduled), default=0.0)
    return ScheduleReport(
        processors=processors,
        unit_count=len(units),
        serial_time=serial_time,
        makespan=makespan,
        schedule=sorted(scheduled, key=lambda s: (s.start, s.processor)),
        conflict_edges=len(edges),
    )
