"""Property-based tests on cross-module invariants (hypothesis).

The B*-tree and grid-file oracles live next to their unit tests; this file
covers the remaining cross-module properties: record encoding, buffer
round-trips, the back-reference symmetry invariant under arbitrary DML
sequences, and nested-transaction recovery.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.encoding import decode_atom, encode_atom
from repro.access.integrity import verify_database
from repro.mad.types import Surrogate
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId

# ---------------------------------------------------------------------------
# encoding: encode . decode == id for the full value universe
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(Surrogate, st.text(min_size=1, max_size=8), st.integers(0, 999)),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=10), _values,
                       max_size=8))
def test_encoding_roundtrip(values):
    assert decode_atom(encode_atom(values)) == values


# ---------------------------------------------------------------------------
# buffer: contents survive arbitrary fix/unfix/evict/flush interleavings
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.booleans()),
                min_size=1, max_size=60),
       st.sampled_from([512, 1024]))
def test_buffer_roundtrip_under_pressure(accesses, page_size):
    """Writing a counter into pages through a tiny buffer never loses an
    update, and the byte budget is never exceeded."""
    disk = SimulatedDisk()
    disk.create_file("seg", page_size)
    for no in range(1, 13):
        disk.write_block("seg", no, Page.format(page_size, no).to_bytes())
    buffer = BufferManager(disk, capacity_bytes=3 * page_size)
    shadow: dict[int, list[bytes]] = {no: [] for no in range(1, 13)}
    for page_no, do_write in accesses:
        pid = PageId("seg", page_no)
        page = buffer.fix(pid)
        # verify everything written so far is present
        got = [payload for _slot, payload in page.records()]
        assert got == shadow[page_no]
        if do_write and page.space_for(8):
            payload = bytes([len(shadow[page_no]) % 256]) * 8
            page.insert(payload)
            shadow[page_no].append(payload)
        buffer.unfix(pid, dirty=do_write)
        assert buffer.used_bytes <= buffer.capacity_bytes
    buffer.flush()
    for no, payloads in shadow.items():
        reread = Page.from_bytes(disk.read_block("seg", no))
        assert [p for _s, p in reread.records()] == payloads


# ---------------------------------------------------------------------------
# the MAD invariant: symmetry survives arbitrary DML sequences
# ---------------------------------------------------------------------------

_dml_ops = st.lists(
    st.tuples(st.sampled_from(["insert_e", "insert_f", "connect",
                               "disconnect", "delete_e", "delete_f"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(_dml_ops)
def test_backreference_symmetry_invariant(ops):
    """After ANY sequence of inserts/connects/disconnects/deletes the
    database satisfies: a references b <=> b back-references a, and no
    reference dangles."""
    from repro.access.system import AccessSystem
    from repro.mad import (IDENTIFIER, REAL, AtomType, ReferenceType,
                           Schema, SetType)
    from repro.storage.system import StorageSystem

    schema = Schema()
    schema.create_atom_type(AtomType("face", [
        ("face_id", IDENTIFIER), ("square_dim", REAL),
        ("border", SetType(ReferenceType("edge", "face"))),
    ]))
    schema.create_atom_type(AtomType("edge", [
        ("edge_id", IDENTIFIER), ("length", REAL),
        ("face", SetType(ReferenceType("face", "border"))),
    ]))
    schema.check_symmetry()
    access = AccessSystem(StorageSystem(), schema)
    access.atoms.register_atom_type("face")
    access.atoms.register_atom_type("edge")

    edges: list[Surrogate] = []
    faces: list[Surrogate] = []
    for op, a, b in ops:
        if op == "insert_e":
            edges.append(access.insert("edge", {"length": float(a % 100)}))
        elif op == "insert_f":
            chosen = [edges[a % len(edges)]] if edges else []
            faces.append(access.insert("face", {"border": chosen}))
        elif op == "connect" and edges and faces:
            face = faces[a % len(faces)]
            edge = edges[b % len(edges)]
            border = access.get(face)["border"]
            if edge not in border:
                access.modify(face, {"border": border + [edge]})
        elif op == "disconnect" and faces:
            face = faces[a % len(faces)]
            border = access.get(face)["border"]
            if border:
                border = [e for e in border if e != border[b % len(border)]]
                access.modify(face, {"border": border})
        elif op == "delete_e" and edges:
            access.delete(edges.pop(a % len(edges)))
        elif op == "delete_f" and faces:
            access.delete(faces.pop(a % len(faces)))
    assert verify_database(access.atoms) == []


# ---------------------------------------------------------------------------
# nested transactions: abort restores exactly the pre-transaction state
# ---------------------------------------------------------------------------

_txn_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "modify", "delete", "connect"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    min_size=1, max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(_txn_ops, _txn_ops)
def test_transaction_abort_restores_state(setup_ops, txn_ops):
    """Property: whatever a transaction (with a committed subtransaction
    inside) did, abort returns the database to the exact prior state."""
    from repro.access.system import AccessSystem
    from repro.mad import (IDENTIFIER, REAL, AtomType, ReferenceType,
                           Schema, SetType)
    from repro.storage.system import StorageSystem
    from repro.txn import TransactionManager

    schema = Schema()
    schema.create_atom_type(AtomType("face", [
        ("face_id", IDENTIFIER), ("square_dim", REAL),
        ("border", SetType(ReferenceType("edge", "face"))),
    ]))
    schema.create_atom_type(AtomType("edge", [
        ("edge_id", IDENTIFIER), ("length", REAL),
        ("face", SetType(ReferenceType("face", "border"))),
    ]))
    schema.check_symmetry()
    access = AccessSystem(StorageSystem(), schema)
    access.atoms.register_atom_type("face")
    access.atoms.register_atom_type("edge")

    edges: list[Surrogate] = []
    faces: list[Surrogate] = []
    for op, a, b in setup_ops:
        if op == "insert":
            edges.append(access.insert("edge", {"length": float(a % 50)}))
            if b % 3 == 0:
                faces.append(access.insert("face"))
        elif op == "modify" and edges:
            access.modify(edges[a % len(edges)], {"length": float(b % 50)})
        elif op == "connect" and edges and faces:
            face = faces[a % len(faces)]
            border = access.get(face)["border"]
            edge = edges[b % len(edges)]
            if edge not in border:
                access.modify(face, {"border": border + [edge]})
        elif op == "delete" and edges:
            access.delete(edges.pop(a % len(edges)))

    def snapshot():
        state = {}
        for type_name in ("face", "edge"):
            for surrogate, values in access.atoms.atoms_of_type(type_name):
                state[surrogate] = repr(sorted(values.items(), key=repr))
        return state

    before = snapshot()
    manager = TransactionManager(access)
    txn = manager.begin()
    live_edges = list(edges)
    live_faces = list(faces)
    child = txn.begin_nested()
    scope = child
    for index, (op, a, b) in enumerate(txn_ops):
        if index == len(txn_ops) // 2 and scope is child:
            child.commit()
            scope = txn
        if op == "insert":
            live_edges.append(scope.insert("edge", {"length": float(a % 50)}))
        elif op == "modify" and live_edges:
            scope.modify(live_edges[a % len(live_edges)],
                         {"length": float(b % 50)})
        elif op == "delete" and live_edges:
            scope.delete(live_edges.pop(a % len(live_edges)))
        elif op == "connect" and live_edges and live_faces:
            face = live_faces[a % len(live_faces)]
            border = access.get(face)["border"]
            edge = live_edges[b % len(live_edges)]
            if edge not in border:
                scope.modify(face, {"border": border + [edge]})
    if scope is child:
        child.commit()
    txn.abort()
    assert snapshot() == before
    assert verify_database(access.atoms) == []
