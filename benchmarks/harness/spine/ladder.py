"""The traced run: a per-layer ladder measured from outside the engine.

No file under ``src/`` records spans yet, so the harness finds each layer's
cost by **replaying the same operations once per rung**, every rung
calling only that layer's public entry:

=============  ==========================================================
``storage``    ``StorageSystem.fix`` / ``Page.read`` / ``unfix`` for every
               record the plan touches (pages resolved beforehand through
               ``AddressTable.placement``)
``access``     the access-system calls the plan makes: ``AtomTypeScan``
               over the root type or ``find_by_key``, then
               ``AccessSystem.get`` per atom (``insert``/``modify``/
               ``delete`` for DML)
``data``       ``PreparedStatement.execute`` on the embedded ``Prima``
``serve.*``    the same statements through ``repro.connect(db)`` and
               ``repro.connect(daemon)``
``shard``      the same statements through ``repro.connect(cluster)``
=============  ==========================================================

Each rung does everything the rung below does plus its own layer's work,
so a layer's *self time* is its rung's median minus the median of the rung
below.  One span is recorded per call (an operation at a rung) with one
child per statement step; spans stay in memory until the run ends.  The
ladder is climbed round after round until time is up, and — as in the
end-to-end run — a rung's figure is its median in the quietest round.

Count metrics are deltas of the engine's own counters around the first
timed round: one client, no timers, so they repeat exactly for a seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.access.address import BASE_STRUCTURE
from repro.access import encoding
from repro.access.scans import AtomTypeScan
from repro.mql.parser import parse
from repro.serve import protocol
from repro.serve.connection import Connection, LocalTransport
from repro.storage.page import PageId

from . import stats
from .measure import Tally, run_ops, set_up
from .workloads import (TENK_COLUMNS, BrepScan, Op, StatementTarget, Step,
                        WiscWrite, Workload, digest)

#: Repetitions of the small timing probes (parse, plan, codec).
PROBE_REPS = 25
#: Atoms the record-codec probe encodes and decodes.
CODEC_ATOMS = 2000

#: name -> (unit, which direction is better) of every per-layer metric, in
#: reporting order.  A layer a workload does not climb to reports 0.
LAYER_METRICS = {
    "storage.self_ms_per_op": ("ms", "lower"),
    "storage.fixes_per_op": ("count", "lower"),
    "storage.hit_ratio": ("ratio", "higher"),
    "storage.blocks_read_per_op": ("count", "lower"),
    "storage.evictions_per_op": ("count", "lower"),
    "storage.dirty_writebacks_per_op": ("count", "lower"),
    "access.self_ms_per_op": ("ms", "lower"),
    "access.atoms_read_per_op": ("count", "lower"),
    "access.decode_us_per_atom": ("us", "lower"),
    "access.encode_us_per_atom": ("us", "lower"),
    "access.stored_bytes_per_atom": ("bytes", "lower"),
    "mql.parse_us": ("us", "lower"),
    "data.self_ms_per_op": ("ms", "lower"),
    "data.plan_us": ("us", "lower"),
    "data.atoms_read_per_result": ("count", "lower"),
    "data.plan_cache_hit_ratio": ("ratio", "higher"),
    "serve.local_self_ms_per_op": ("ms", "lower"),
    "serve.daemon_self_ms_per_op": ("ms", "lower"),
    "serve.codec_us_per_msg": ("us", "lower"),
    "serve.bytes_per_op": ("bytes", "lower"),
    "serve.messages_per_op": ("count", "lower"),
    "shard.self_ms_per_op": ("ms", "lower"),
    "shard.routed_share": ("ratio", "higher"),
    "trace_overhead_pct": ("%", "lower"),
}

#: Which rung's median a layer's self time is measured against.
SELF_TIME = {
    "storage.self_ms_per_op": ("storage", None),
    "access.self_ms_per_op": ("access", "storage"),
    "data.self_ms_per_op": ("data", "access"),
    "serve.local_self_ms_per_op": ("serve.local", "data"),
    "serve.daemon_self_ms_per_op": ("serve.daemon", "serve.local"),
    "shard.self_ms_per_op": ("shard", "serve.local"),
}


@dataclass
class StepPlan:
    """What one statement step asks of the layers below the data system,
    resolved before anything is timed."""

    kind: str                       # select | insert | modify | delete
    type_name: str
    #: Root atom type the plan scans (None: it looks a key up).
    scan_type: str | None = None
    key: Any = None
    values: dict[str, Any] | None = None
    #: Surrogates the plan reads after its root access, in order.
    reads: list = field(default_factory=list)
    #: Pages the root scan walks record by record.
    scan_pages: list = field(default_factory=list)
    #: (page, slot or None, dirty) per record access, in order.
    records: list = field(default_factory=list)
    #: Leading record reads (the scan's deliveries) outside the digest.
    delivered: int = 0
    #: Digest of the canonical atoms the plan reads after its root
    #: access — what the storage and access rungs must hand back.
    reads_digest: int | None = None


def _walk(molecule):
    """A molecule's atoms in construction order, duplicates included."""
    yield molecule
    for components in molecule.components.values():
        for component in components:
            yield from _walk(component)


def _atoms_digest(workload: Workload, atoms: list[dict]) -> int:
    return digest([workload.canon_atom(atom) for atom in atoms])


def _record(db, surrogate) -> tuple:
    record = db.access.atoms.addresses.placement(
        surrogate, BASE_STRUCTURE).record
    return record.page, record.slot


def plan_brep(workload: BrepScan, db, step: Step) -> StepPlan:
    text, root_type = workload.candidates[step.statement]
    result = db.execute(text)
    try:
        roots = result.materialize()
    finally:
        result.close()
    constructed = [m for root in roots for m in _walk(root)]
    segment = f"at_{root_type}"
    plan = StepPlan("select", root_type, scan_type=root_type,
                    delivered=len(roots))
    plan.reads = [m.surrogate for m in constructed]
    plan.scan_pages = [
        PageId(segment, number)
        for number in db.storage.segment(segment).page_numbers()]
    # The scan delivers each root through one more read before the
    # construction reads it again.
    plan.records = [_record(db, m.surrogate) + (False,)
                    for m in roots + constructed]
    plan.reads_digest = _atoms_digest(
        workload, [m.atom for m in constructed])
    return plan


def plan_lookups(db, op: Op) -> list[StepPlan]:
    find = db.access.atoms.find_by_key
    return [StepPlan("select", "tenk", key=step.args[0],
                     records=[_record(db, find("tenk", step.args[0]))
                              + (False,)],
                     reads_digest=digest(list(step.expect)))
            for step in op.steps]


def plan_write_cycle(db, op: Op) -> list[StepPlan]:
    """Plans of one insert/modify/lookup/delete cycle on a fresh row."""
    insert, modify, lookup, _delete = op.steps
    values = dict(zip(TENK_COLUMNS, insert.args))
    # The new row's page is only known once it exists: insert it, look,
    # and take it out again (a later insert of the same bytes lands on
    # the same page).
    surrogate = db.access.insert("tenk", values)
    page, _slot = _record(db, surrogate)
    db.access.delete(surrogate)
    read, write = (page, None, False), (page, None, True)
    key = lookup.args[0]
    before, after = digest([tuple(insert.args)]), digest(list(lookup.expect))
    return [
        StepPlan("insert", "tenk", values=values, records=[write]),
        StepPlan("modify", "tenk", key=key,
                 values={"unique1": modify.args[0]},
                 records=[read, read, write], reads_digest=before),
        StepPlan("select", "tenk", key=key, records=[read],
                 reads_digest=after),
        StepPlan("delete", "tenk", key=key, records=[read, read, write],
                 reads_digest=after),
    ]


def storage_step(db, plan: StepPlan) -> list[bytes]:
    """The storage rung of one step: pin, read the slot, unpin."""
    fix, unfix = db.storage.fix, db.storage.unfix
    for page_id in plan.scan_pages:
        fix(page_id).records()
        unfix(page_id)
    raw = []
    for page_id, slot, dirty in plan.records:
        page = fix(page_id)
        if slot is not None:
            raw.append(page.read(slot))
        unfix(page_id, dirty)
    return raw


def access_step(db, plan: StepPlan) -> list[dict]:
    """The access rung of one step: the atom-level calls of its plan."""
    access = db.access
    if plan.kind == "insert":
        access.insert(plan.type_name, plan.values)
        return []
    if plan.scan_type is not None:
        for _delivered in AtomTypeScan(access.atoms, plan.scan_type):
            pass
        get = access.get
        return [get(surrogate) for surrogate in plan.reads]
    surrogate = access.atoms.find_by_key(plan.type_name, plan.key)
    read = [access.get(surrogate)]
    if plan.kind == "modify":
        access.modify(surrogate, plan.values)
    elif plan.kind == "delete":
        access.delete(surrogate)
    return read


class _Recorder:
    """A transport that keeps every message it carries (codec probe)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.messages: list = []

    def request(self, message):
        reply = self.inner.request(message)
        self.messages += (message, reply)
        return reply


def _median_us(fn: Callable[[], Any], reps: int = PROBE_REPS) -> float:
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return stats.median(samples) * 1e6


class Ladder:
    """One workload's traced run."""

    def __init__(self, workload: Workload, seed: int,
                 scale: float = 1.0) -> None:
        self.workload = workload
        self.seed = seed
        #: Every op issued at any rung, warm-up and untraced replays
        #: included, and how many of them failed.
        self.tally = Tally()
        self.fixture, stream, warmup, _seconds = set_up(
            workload, seed, workload.rungs, scale)
        self.tally.merge(warmup)
        self.ops = [next(stream) for _ in range(
            max(2, round(workload.ladder_ops * scale)))]
        db = self.fixture.db
        if isinstance(workload, BrepScan):
            # Every BREP op runs the same two statements: plan them once.
            plans = [plan_brep(workload, db, step)
                     for step in self.ops[0].steps]
            self.plans = {op.index: plans for op in self.ops}
        else:
            plan = plan_write_cycle if isinstance(workload, WiscWrite) \
                else plan_lookups
            self.plans = {op.index: plan(db, op) for op in self.ops}
        #: (id, parent, name, op, round, start, end) — seconds on the
        #: perf_counter clock.
        self.spans: list[tuple] = []
        self.origin = time.perf_counter()
        #: Per rung, the median op duration of every timed round.
        self.round_medians: dict[str, list[float]] = {
            rung: [] for rung in workload.rungs}
        self.untraced_medians: list[float] = []
        self.deltas: dict[str, dict[str, float]] = {}
        self.molecules_returned = 0
        self.answer_atoms: list[dict] = []
        self._digests: dict[int, int] = {}
        self.rounds = 0

    def close(self) -> None:
        self.fixture.close()

    # -- one rung ----------------------------------------------------------

    def _step_runner(self, rung: str) -> Callable[[Op, int], Any]:
        db = self.fixture.db
        if rung == "storage":
            return lambda op, i: storage_step(db, self.plans[op.index][i])
        if rung == "access":
            return lambda op, i: access_step(db, self.plans[op.index][i])
        run = self.fixture.targets[rung].run
        return lambda op, i: run(op.steps[i])

    def _check(self, rung: str, op: Op, results: list) -> None:
        """Every rung must hand back the same content: raw records that
        decode to, atoms equal to, or molecules built from, what the
        plan resolved — and the statement rungs must satisfy the oracle."""
        workload = self.workload
        if rung in ("storage", "access"):
            for plan, result in zip(self.plans[op.index], results):
                if rung == "storage":
                    result = [encoding.decode_atom(raw)
                              for raw in result[plan.delivered:]]
                if plan.reads_digest is not None and result and \
                        _atoms_digest(workload, result) \
                        != plan.reads_digest:
                    self.tally.fail(f"op {op.index}: {rung} rung read other "
                               f"content than the plan resolved")
                    return
            return
        found = workload.check(op, results)
        if found is None:
            self.tally.fail(f"op {op.index}: {rung} answer disagrees with "
                       f"the oracle")
        elif self._digests.setdefault(op.index, found) != found:
            self.tally.fail(f"op {op.index}: {rung} digest differs from the "
                       f"rung below")

    def replay(self, rung: str, round_no: int) -> None:
        """Replay every ladder op through one rung, one span per op and
        one child span per step.  Round -1 is the unrecorded warm-up."""
        step = self._step_runner(rung)
        clock = time.perf_counter
        record = round_no >= 0
        durations = []
        for op in self.ops:
            self.tally.attempted += 1
            results = []
            marks = [clock()]
            try:
                for index in range(len(op.steps)):
                    results.append(step(op, index))
                    marks.append(clock())
            except Exception as exc:  # noqa: BLE001 - op boundary
                self.tally.fail(f"op {op.index} at {rung}: {exc!r}")
                continue
            self._check(rung, op, results)
            if round_no == 0 and rung == "data":
                for molecules, _affected in results:
                    self.molecules_returned += len(molecules)
                    if len(self.answer_atoms) < CODEC_ATOMS:
                        self.answer_atoms += [
                            m.atom for root in molecules
                            for m in _walk(root)]
            if record:
                durations.append(marks[-1] - marks[0])
                parent = len(self.spans)
                self.spans.append((parent, None, rung, op.index, round_no,
                                   marks[0], marks[-1]))
                for index, each in enumerate(op.steps):
                    self.spans.append((
                        len(self.spans), parent,
                        f"{rung}/{each.statement}", op.index, round_no,
                        marks[index], marks[index + 1]))
        if durations:
            self.round_medians[rung].append(stats.median(durations))

    def _counters(self) -> dict[str, float]:
        report = dict(self.fixture.db.io_report())
        if self.fixture.cluster is not None:
            for key, value in self.fixture.cluster.io_report().items():
                if key in ("routed_queries", "scatter_queries"):
                    report[key] = value
        return {k: v for k, v in report.items()
                if isinstance(v, (int, float))}

    def round(self, round_no: int) -> None:
        """One pass up the ladder, then the same ops untraced."""
        for rung in self.workload.rungs:
            before = self._counters() if round_no == 0 else None
            self.replay(rung, round_no)
            if before is not None:
                after = self._counters()
                self.deltas[rung] = {
                    key: after[key] - before.get(key, 0) for key in after}
        untraced = run_ops(
            self.workload, self.fixture.targets[self.workload.top],
            iter(self.ops), count=len(self.ops))
        self.tally.merge(untraced)
        if round_no >= 0:
            if untraced.latencies:
                self.untraced_medians.append(
                    stats.median(untraced.latencies))
            self.rounds += 1

    def run(self, seconds: float) -> None:
        """Warm every rung, then climb the ladder until time is up (at
        least once)."""
        deadline = time.perf_counter() + seconds
        self.round(-1)
        self.round(0)
        while time.perf_counter() < deadline:
            self.round(self.rounds)

    # -- probes: small fixed timings outside the rounds -----------------------

    def _probe_frontend(self) -> tuple[float, float]:
        """(parse µs, plan µs) per statement text: plan is an uncached
        ``prepare`` minus the parse it contains."""
        data = self.fixture.db.data
        parses, plans = [], []
        for text in self.workload.statements.values():
            parsed = _median_us(lambda: parse(text))
            prepared = _median_us(
                lambda: data.prepare(text, use_cache=False))
            parses.append(parsed)
            plans.append(max(prepared - parsed, 0.0))
        return sum(parses) / len(parses), sum(plans) / len(plans)

    def _probe_record_codec(self) -> tuple[float, float, float]:
        """(decode µs, encode µs, stored bytes) per atom, over the atoms
        the data rung returned."""
        atoms = self.answer_atoms[:CODEC_ATOMS]
        if not atoms:
            return 0.0, 0.0, 0.0
        raws = [encoding.encode_atom(atom) for atom in atoms]
        encode = _median_us(
            lambda: [encoding.encode_atom(atom) for atom in atoms], 5)
        decode = _median_us(
            lambda: [encoding.decode_atom(raw) for raw in raws], 5)
        return (decode / len(atoms), encode / len(atoms),
                sum(map(len, raws)) / len(raws))

    def _probe_wire_codec(self) -> float:
        """µs to encode and decode one protocol message, over the actual
        requests and replies of the ladder's ops."""
        local = self.fixture.connections.get("serve.local")
        if local is None:
            return 0.0
        # A second client object on the *same* session (a second session
        # would wait for the first one's locks); it is left open, like
        # the session, and only its statement handles are released.
        recorder = _Recorder(LocalTransport(local.session))
        connection = Connection(recorder, local.name,
                                local.default_fetch_size,
                                session=local.session, manager=local.manager)
        target = StatementTarget(connection, self.workload.statements)
        recorder.messages.clear()    # PREPARE is set-up, not an op
        for op in self.ops:
            for each in op.steps:
                target.run(each)
        messages = list(recorder.messages)
        for statement in target.prepared.values():
            statement.close()
        spent = _median_us(lambda: [
            protocol.decode(protocol.encode(m)) for m in messages], 5)
        return spent / len(messages)

    # -- the per-layer table ---------------------------------------------------

    def result(self) -> dict[str, Any]:
        workload = self.workload
        ops = len(self.ops)
        median_ms = {rung: min(medians) * 1e3
                     for rung, medians in self.round_medians.items()
                     if medians}
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        for name, (rung, below) in SELF_TIME.items():
            if rung in median_ms:
                metrics[name] = median_ms[rung] - (
                    median_ms[below] if below else 0.0)
        engine = self.deltas.get("data", {})
        fixes = engine.get("fixes", 0)
        metrics["storage.fixes_per_op"] = fixes / ops
        metrics["storage.hit_ratio"] = \
            engine.get("hits", 0) / fixes if fixes else 0.0
        for name, counter in (
                ("storage.blocks_read_per_op", "blocks_read"),
                ("storage.evictions_per_op", "evictions"),
                ("storage.dirty_writebacks_per_op", "dirty_writebacks"),
                ("access.atoms_read_per_op", "atoms_read")):
            metrics[name] = engine.get(counter, 0) / ops
        if self.molecules_returned:
            metrics["data.atoms_read_per_result"] = \
                engine.get("atoms_read", 0) / self.molecules_returned
        serve_rung = next((r for r in ("serve.daemon", "serve.local")
                           if r in self.deltas), None)
        if serve_rung is not None:
            wire = self.deltas[serve_rung]
            metrics["serve.messages_per_op"] = \
                wire.get("net_messages", 0) / ops
            metrics["serve.bytes_per_op"] = wire.get("net_bytes", 0) / ops
            metrics["serve.codec_us_per_msg"] = self._probe_wire_codec()
        if "shard" in self.deltas:
            routed = self.deltas["shard"].get("routed_queries", 0)
            scattered = self.deltas["shard"].get("scatter_queries", 0)
            metrics["shard.routed_share"] = \
                routed / (routed + scattered) if routed + scattered else 0.0
        metrics["mql.parse_us"], metrics["data.plan_us"] = \
            self._probe_frontend()
        (metrics["access.decode_us_per_atom"],
         metrics["access.encode_us_per_atom"],
         metrics["access.stored_bytes_per_atom"]) = \
            self._probe_record_codec()
        totals = self._counters()
        lookups = totals.get("plan_cache_hits", 0) \
            + totals.get("plan_cache_misses", 0)
        if lookups:
            metrics["data.plan_cache_hit_ratio"] = \
                totals.get("plan_cache_hits", 0) / lookups
        if self.untraced_medians and workload.top in median_ms:
            metrics["trace_overhead_pct"] = 100.0 * (
                median_ms[workload.top]
                / (min(self.untraced_medians) * 1e3) - 1.0)
        rungs = list(workload.rungs)
        return {
            "workload": workload.name,
            "seed": self.seed,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "first_error": self.tally.first_error,
            "rounds": self.rounds,
            "ops_per_round": ops,
            "rung_median_ms": median_ms,
            "monotonic": all(
                median_ms[upper] >= median_ms[lower]
                for lower, upper in zip(rungs, rungs[1:])),
            # The lower rungs are only honest floors if they pin pages
            # and read atoms as often as the engine does for the same
            # ops: compare with storage.fixes_per_op and
            # access.atoms_read_per_op.
            "rung_work": {
                "storage_fixes_per_op":
                    self.deltas.get("storage", {}).get("fixes", 0) / ops,
                "access_atoms_read_per_op":
                    self.deltas.get("access", {}).get("atoms_read", 0) / ops,
            },
            "metrics": metrics,
            "modelled": {
                "io_time_ms_per_op": engine.get("io_time_ms", 0) / ops,
                "net_comm_time_ms_per_op": self.deltas.get(
                    serve_rung or "", {}).get("net_comm_time_ms", 0) / ops,
            },
        }

    def trace(self) -> dict[str, Any]:
        """The first timed round as JSON-able spans (µs since the ladder
        was built); later rounds repeat the same ops and only feed the
        medians."""
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "spans": [
                {"id": span_id, "parent": parent, "name": name, "op": op,
                 "start_us": (start - self.origin) * 1e6,
                 "end_us": (end - self.origin) * 1e6}
                for span_id, parent, name, op, round_no, start, end
                in self.spans if round_no == 0],
        }


def climb(workload: Workload, seed: int, seconds: float,
          scale: float = 1.0) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload's ladder: ``(per-layer result, trace)``."""
    ladder = Ladder(workload, seed, scale)
    try:
        ladder.run(seconds)
        return ladder.result(), ladder.trace()
    finally:
        ladder.close()
