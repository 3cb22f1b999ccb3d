"""The six named workloads: data, statements, operation streams, oracles.

A workload owns everything that depends on ``--seed``: the rows or solids
it loads, the keys its operations ask for, and a **plain-dict oracle** of
what every answer must contain.  The engine only ever sees the generated
statements and bindings.  An *operation* is one or more prepared
statements, each executed and fully drained, timed as one round trip by
the caller; the workload itself never reads a clock.

Names and reasons are frozen — later issues cite them — and are repeated
in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

import repro
from repro import Prima, ShardedCluster
from repro.serve import PrimaDaemon, SessionManager
from repro.workloads import brep

#: Rungs of the per-layer ladder, bottom up.  The first three are calls
#: into one embedded engine; the others are statement-level entry points.
RUNGS = ("storage", "access", "data", "serve.local", "serve.daemon", "shard")

TENK_DDL = (
    "CREATE ATOM_TYPE tenk (tenk_id: IDENTIFIER, unique1: INTEGER, "
    "unique2: INTEGER, onepct: INTEGER, tenpct: INTEGER, "
    "stringu1: CHAR_VAR) KEYS_ARE (unique2)"
)
TENK_LOOKUP = "SELECT ALL FROM tenk WHERE unique2 = ?"
TENK_COLUMNS = ("unique1", "unique2", "onepct", "tenpct", "stringu1")


@dataclass(frozen=True)
class Step:
    """One prepared statement execution: which text, which bindings,
    and the oracle's canonical answer."""

    statement: str
    args: tuple
    expect: Any


@dataclass(frozen=True)
class Op:
    index: int
    steps: tuple[Step, ...]


def digest(value: Any) -> int:
    """Content digest of a canonical answer (nested tuples of plain
    values, whose ``repr`` is deterministic)."""
    return zlib.crc32(repr(value).encode())


class StatementTarget:
    """A workload's statements prepared once on one entry point — an
    embedded :class:`Prima` or any ``repro.connect`` connection."""

    def __init__(self, entry: Any, statements: dict[str, str]) -> None:
        self.prepared = {name: entry.prepare(text)
                         for name, text in statements.items()}

    def run(self, step: Step) -> tuple[list, int]:
        """Execute and drain one step: ``(molecules, affected)``."""
        result = self.prepared[step.statement].execute(*step.args)
        try:
            return result.materialize(), result.affected
        finally:
            result.close()


class Fixture:
    """One built workload: the engine(s), the oracle, and a prepared
    :class:`StatementTarget` per requested statement-level rung."""

    def __init__(self, workload: "Workload", oracle: Any) -> None:
        self.workload = workload
        self.oracle = oracle
        #: The embedded engine the storage/access/data rungs call into
        #: (``None`` when only a cluster was built).
        self.db: Prima | None = None
        self.cluster: ShardedCluster | None = None
        self.targets: dict[str, StatementTarget] = {}
        #: The connection behind each serve/shard rung (the codec probe
        #: needs the session of the in-process one).
        self.connections: dict[str, Any] = {}
        self._closers: list[Any] = []

    def open_rung(self, rung: str) -> None:
        """Open the entry point of a statement-level rung and prepare
        the workload's statements on it."""
        if rung == "data":
            entry: Any = self.db
        else:
            if rung == "serve.local":
                entry = repro.connect(self.db)
            elif rung == "serve.daemon":
                daemon = PrimaDaemon(SessionManager(self.db)).start()
                self._closers.append(daemon.stop)
                entry = repro.connect(daemon)
            elif rung == "shard":
                entry = repro.connect(self.cluster)
            else:
                raise ValueError(f"no statement entry for rung {rung!r}")
            self.connections[rung] = entry
            self._closers.append(entry.close)
        self.targets[rung] = StatementTarget(entry, self.workload.statements)

    def close(self) -> None:
        # Connections first, then the daemon they talk to, then engines.
        for closer in reversed(self._closers):
            closer()
        self._closers.clear()
        for engine in (self.db, self.cluster):
            if engine is not None:
                engine.close()


class Workload:
    """Base of the six workloads (see the module docstring)."""

    name: str
    why: str
    #: The rungs this workload climbs, bottom up; the last one is the
    #: entry point the end-to-end run measures.
    rungs: tuple[str, ...]
    statements: dict[str, str]
    #: Operations run (and checked) before anything is timed.
    warmup_ops: int
    #: Operations one ladder round replays per rung (frozen).
    ladder_ops: int
    #: What an end-to-end reader should know about the data size.
    size: str

    @property
    def top(self) -> str:
        return self.rungs[-1]

    def open(self, seed: int, rungs: tuple[str, ...],
             scale: float = 1.0) -> Fixture:
        """Build and load the database and open ``rungs``.  ``scale``
        shrinks the data (and the frozen op counts) for the harness's
        own tests."""
        fixture = self._build(seed, scale, rungs)
        try:
            for rung in rungs:
                if rung in RUNGS[2:]:
                    fixture.open_rung(rung)
        except BaseException:
            fixture.close()
            raise
        return fixture

    def _build(self, seed: int, scale: float,
               rungs: tuple[str, ...]) -> Fixture:
        raise NotImplementedError

    def ops(self, fixture: Fixture, seed: int) -> Iterator[Op]:
        """The endless, seed-determined operation stream."""
        raise NotImplementedError

    def canon(self, step: Step, molecules: list, affected: int) -> Any:
        """The canonical (hashable, surrogate-free) form of an answer."""
        raise NotImplementedError

    def canon_atom(self, atom: dict[str, Any]) -> Any:
        """The canonical form of one atom, as the lower rungs of the
        traced run compare them."""
        raise NotImplementedError

    def verify(self, step: Step, answer: Any) -> bool:
        """Does a canonical answer agree with the oracle?"""
        return answer == step.expect

    def check(self, op: Op, answers: list[tuple[list, int]]) -> int | None:
        """Canonicalise and verify a whole operation's answers; returns
        their digest, or ``None`` on any mismatch."""
        canonical = []
        for step, (molecules, affected) in zip(op.steps, answers):
            answer = self.canon(step, molecules, affected)
            if not self.verify(step, answer):
                return None
            canonical.append(answer)
        return digest(tuple(canonical))


# ---------------------------------------------------------------------------
# BREP molecule retrieval (paper Fig. 2.3)
# ---------------------------------------------------------------------------

def _box(origin: tuple[float, float, float], size: float) -> dict[str, Any]:
    """The oracle's copy of one box solid, derived from geometry alone:
    8 corners, the 12 corner pairs differing in one coordinate, and the
    6 planes of 4 edges each.  Arithmetic mirrors the generator's so
    floats compare exactly."""
    units = list(itertools.product((0.0, 1.0), repeat=3))
    at = {u: tuple(o + c * size for o, c in zip(origin, u)) for u in units}
    unit_edges = [(a, b) for a, b in itertools.combinations(units, 2)
                  if sum(x != y for x, y in zip(a, b)) == 1]
    edges = {pair: (size, tuple(sorted((at[pair[0]], at[pair[1]]))))
             for pair in unit_edges}
    faces = []
    for axis in range(3):
        for side in (0.0, 1.0):
            border = tuple(sorted(
                edge for (a, b), edge in edges.items()
                if a[axis] == side and b[axis] == side))
            faces.append((size * size, border))
    ox, oy, oz = origin
    return {
        "hull": (ox, oy, oz, ox + size, oy + size, oz + size),
        "edges": sorted(edges.values()),
        "faces": tuple(sorted(faces)),
    }


def _point(molecule) -> tuple[float, float, float]:
    placement = molecule.atom["placement"]
    return (placement["x_coord"], placement["y_coord"],
            placement["z_coord"])


def _edge(molecule) -> tuple:
    return (molecule.atom["length"],
            tuple(sorted(_point(p) for p in molecule.components["point"])))


def _brep(molecule) -> tuple:
    faces = tuple(sorted(
        (face.atom["square_dim"],
         tuple(sorted(_edge(e) for e in face.components["edge"])))
        for face in molecule.components["face"]))
    return (molecule.atom["brep_no"], tuple(molecule.atom["hull"]), faces)


class BrepScan(Workload):
    """One op = a full vertical retrieval plus an ordered top-10."""

    statements = {
        "full": "SELECT ALL FROM brep-face-edge-point",
        "topk": "SELECT ALL FROM edge-point ORDER BY length LIMIT 10",
    }
    #: For each statement, a statement whose answer holds every molecule
    #: the plan constructs (the top-k constructs all candidates before it
    #: keeps ten), and the atom type its root scan walks.
    candidates = {
        "full": ("SELECT ALL FROM brep-face-edge-point", "brep"),
        "topk": ("SELECT ALL FROM edge-point", "edge"),
    }
    n_solids = 16
    warmup_ops = 3
    ladder_ops = 5
    size = "16 box solids = 463 atoms, 3 data pages; fits the buffer"

    def __init__(self, name: str, rungs: tuple[str, ...], why: str) -> None:
        self.name, self.rungs, self.why = name, rungs, why

    def _build(self, seed, scale, rungs):
        n_solids = max(2, round(self.n_solids * scale))
        db = Prima()
        brep.generate(db, n_solids=n_solids, seed=seed)
        # The oracle redraws what the generator drew — a size, then an
        # origin, per solid — and never reads the database.
        rng = random.Random(seed)
        boxes = []
        for index in range(n_solids):
            size = 1.0 + rng.random() * 9.0
            origin = (rng.uniform(0, 100), rng.uniform(0, 100),
                      rng.uniform(0, 100))
            boxes.append((brep.TABLE_2_1_BREP_NO + index,
                          _box(origin, size)))
        fixture = Fixture(self, boxes)
        fixture.db = db
        return fixture

    def ops(self, fixture, seed):
        boxes = fixture.oracle
        full = tuple(sorted((no, box["hull"], box["faces"])
                            for no, box in boxes))
        edges = sorted(edge for _no, box in boxes for edge in box["edges"])
        steps = (Step("full", (), full), Step("topk", (), tuple(edges)))
        for index in itertools.count():
            yield Op(index, steps)

    def canon(self, step, molecules, affected):
        if step.statement == "full":
            return tuple(sorted(_brep(m) for m in molecules))
        return tuple(_edge(m) for m in molecules)

    def canon_atom(self, atom):
        # The database is never written, so surrogates are stable too.
        return sorted(atom.items())

    def verify(self, step, answer):
        if step.statement == "full":
            return answer == step.expect
        # Every box has 12 edges of one length, so which ten tie-winners
        # come back is the engine's choice: check the lengths in order,
        # and that each edge is a distinct edge the oracle knows.
        every_edge = step.expect
        return (len(answer) == min(10, len(every_edge))
                and [e[0] for e in answer]
                == [e[0] for e in every_edge[:len(answer)]]
                and len(set(answer)) == len(answer)
                and set(answer) <= set(every_edge))


# ---------------------------------------------------------------------------
# Wisconsin-style relation `tenk`
# ---------------------------------------------------------------------------

def tenk_row(unique1: int, unique2: int) -> tuple:
    """One Wisconsin row as the oracle keeps it (column order of
    :data:`TENK_COLUMNS`): a 7-letter base-26 rendering of ``unique1``
    padded to 40 bytes, in the style of the original ``stringu1``."""
    letters, n = [], unique1
    for _ in range(7):
        letters.append(chr(ord("A") + n % 26))
        n //= 26
    return (unique1, unique2, unique1 % 100, unique1 % 10,
            "".join(reversed(letters)) + "x" * 33)


def _tenk_row(atom: dict[str, Any]) -> tuple:
    return tuple(atom[column] for column in TENK_COLUMNS)


class WiscPoint(Workload):
    """One op = ``lookups`` prepared key lookups on ``unique2``, timed as
    one round."""

    statements = {"lookup": TENK_LOOKUP}

    def __init__(self, name: str, rungs: tuple[str, ...], why: str, *,
                 rows: int, lookups: int = 1,
                 buffer_pages: int | None = None,
                 hot_share: float | None = None, shards: int = 0) -> None:
        self.name, self.rungs, self.why = name, rungs, why
        self.rows = rows
        self.lookups = lookups
        self.buffer_pages = buffer_pages
        self.hot_share = hot_share
        self.shards = shards
        # A small buffer needs a longer run-in to reach steady state.
        self.warmup_ops = (2000 if buffer_pages else 500) // lookups
        self.ladder_ops = 400 // lookups
        self.size = f"{rows} rows" + (
            f" (about {rows // 46} pages) under a {buffer_pages}-page buffer"
            if buffer_pages else ", fits the buffer") + (
            f", hash-partitioned over {shards} engines" if shards else "")

    def _engine(self, scale: float) -> Prima:
        if self.buffer_pages:
            return Prima(buffer_capacity=max(
                4, round(self.buffer_pages * scale)) * 8192)
        return Prima()

    def _build(self, seed, scale, rungs):
        rows = max(50, round(self.rows * scale))
        permutation = list(range(rows))
        random.Random(seed).shuffle(permutation)
        oracle = {unique2: tenk_row(unique1, unique2)
                  for unique2, unique1 in enumerate(permutation)}
        fixture = Fixture(self, oracle)
        engines: list[Any] = []
        if "shard" in rungs:
            fixture.cluster = ShardedCluster(shards=self.shards)
            engines.append(fixture.cluster)
        if set(rungs) - {"shard"}:
            fixture.db = self._engine(scale)
            engines.append(fixture.db)
        for engine in engines:
            engine.execute(TENK_DDL)
            for row in oracle.values():
                engine.insert_atom("tenk", dict(zip(TENK_COLUMNS, row)))
            engine.commit()
        return fixture

    def keys(self, rows: int, seed: int) -> Iterator[int]:
        rng = random.Random(seed + 1)
        if self.hot_share is None:
            while True:
                yield rng.randrange(rows)
        # Skewed: `hot_share` of the lookups fall in one contiguous
        # tenth of the key range, the rest uniformly outside it.
        tenth = rows // 10
        hot_start = rng.randrange(10) * tenth
        while True:
            if rng.random() < self.hot_share:
                yield hot_start + rng.randrange(tenth)
            else:
                key = rng.randrange(rows - tenth)
                yield key + tenth if key >= hot_start else key

    def ops(self, fixture, seed):
        oracle = fixture.oracle
        keys = self.keys(len(oracle), seed)
        for index in itertools.count():
            yield Op(index, tuple(
                Step("lookup", (key,), (oracle[key],))
                for key in itertools.islice(keys, self.lookups)))

    def canon(self, step, molecules, affected):
        return tuple(_tenk_row(m.atom) for m in molecules)

    def canon_atom(self, atom):
        return _tenk_row(atom)


class WiscWrite(WiscPoint):
    """One op = INSERT a new row, MODIFY it, read it back, DELETE it —
    the table is the same size after every op."""

    statements = {
        "insert": "INSERT tenk (unique1 = ?, unique2 = ?, onepct = ?, "
                  "tenpct = ?, stringu1 = ?)",
        "modify": "MODIFY tenk SET unique1 = ? FROM tenk WHERE unique2 = ?",
        "lookup": TENK_LOOKUP,
        "delete": "DELETE ALL FROM tenk WHERE unique2 = ?",
    }

    def __init__(self, name: str, rungs: tuple[str, ...], why: str, *,
                 rows: int) -> None:
        super().__init__(name, rungs, why, rows=rows)
        self.warmup_ops, self.ladder_ops = 200, 150

    def ops(self, fixture, seed):
        rows = len(fixture.oracle)
        rng = random.Random(seed + 1)
        one = ("affected", 1)
        for index in itertools.count():
            key = rows + index
            row = tenk_row(rng.randrange(rows), key)
            changed = rows + rng.randrange(rows)   # never the old value
            yield Op(index, (
                Step("insert", row, one),
                Step("modify", (changed, key), one),
                Step("lookup", (key,), ((changed,) + row[1:],)),
                Step("delete", (key,), one),
            ))

    def canon(self, step, molecules, affected):
        if step.statement == "lookup":
            return super().canon(step, molecules, affected)
        return ("affected", affected)


EMBEDDED = RUNGS[:3]

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    BrepScan(
        "brep_scan.embedded", EMBEDDED,
        "whole-molecule retrieval in process: access (decode) and data "
        "(molecule construct) do nearly all the work, serve none"),
    BrepScan(
        "brep_scan.daemon", RUNGS[:5],
        "the same retrievals over loopback TCP: large replies make the "
        "serve codec and framing more than half of the op"),
    WiscPoint(
        "wisc_point.daemon", RUNGS[:5],
        "one atom per reply over the socket: per-message serve overhead "
        "dominates, so it should not move when decode gets faster",
        rows=10_000),
    WiscPoint(
        "wisc_point.cold", EMBEDDED,
        "larger than the buffer, skewed keys: steady misses, evictions "
        "and page parsing make storage a large share of each lookup",
        # A single lookup is a buffer hit six times in ten, so its median
        # would ignore what a miss costs: ten lookups make one op.
        rows=20_000, lookups=10, buffer_pages=48, hot_share=0.8),
    WiscWrite(
        "wisc_write.local", RUNGS[:4],
        "insert/modify/read/delete cycles in process: access encodes and "
        "maintains keys, so a change that helps reads but costs writes "
        "shows here",
        rows=10_000),
    WiscPoint(
        "wisc_point.shard4", RUNGS[:4] + ("shard",),
        "routed key lookups on a 4-engine cluster: router and coordinator "
        "are the only difference from an in-process lookup",
        rows=10_000, shards=4),
)}
