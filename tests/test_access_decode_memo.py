"""The decoded-record memo: each stored atom image is decoded once.

The atom manager memoises ``decode_atom`` by the exact record bytes.  These
tests pin what that must not change: every caller owns what it gets, every
write is visible to the next read, snapshots keep their epoch, checkpoints
never carry the memo, and the counts the paper argues with stay the same.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Prima
from repro.access.address import BASE_STRUCTURE
from repro.access.encoding import decode_atom, encode_atom
from repro.errors import AtomNotFoundError
from repro.mad.types import Surrogate
from repro.persistence import load, save
from repro.serve import PrimaDaemon, SessionManager
from repro.workloads import brep

BREP_SCAN = "SELECT ALL FROM brep-face-edge-point"

NODE_DDL = (
    "CREATE ATOM_TYPE node (node_id: IDENTIFIER, label: CHAR_VAR, "
    "pos: RECORD x, y : REAL, END, "
    "next: SET_OF (REF_TO (node.prev)), prev: SET_OF (REF_TO (node.next)))"
)


def raw_base_record(db: Prima, surrogate) -> bytes:
    """The stored bytes of an atom's base record, read past the memo."""
    record = db.access.atoms.addresses.placement(
        surrogate, BASE_STRUCTURE).record
    with db.storage.page(record.page) as page:
        return page.read(record.slot)


def decodes(db: Prima) -> int:
    return db.io_report().get("atom_decodes", 0)


def brep_db(n_solids: int = 2) -> tuple[Prima, brep.BrepDatabase]:
    db = Prima()
    return db, brep.generate(db, n_solids=n_solids)


class TestCallersOwnTheirCopy:
    def test_mutating_a_returned_atom_does_not_leak(self):
        db, handles = brep_db()
        point = handles.points[0]
        first = db.get_atom(point)
        pristine = decode_atom(raw_base_record(db, point))
        first["placement"]["x_coord"] = -1.0
        first["line"].append(first["line"][0])
        first["brep"] = None
        assert db.get_atom(point) == pristine
        assert db.get_atom(point) is not db.get_atom(point)

    def test_mutating_a_molecule_does_not_leak(self):
        db, _handles = brep_db()
        before = [m.to_dict() for m in db.query(BREP_SCAN).materialize()]
        for molecule in db.query(BREP_SCAN).materialize():
            for label, atom in molecule.atoms():
                if label == "point":
                    atom["placement"]["x_coord"] = -1.0
                    atom["line"].clear()
        after = [m.to_dict() for m in db.query(BREP_SCAN).materialize()]
        assert after == before

    def test_scans_hand_out_copies_too(self):
        db, _handles = brep_db()
        for _surrogate, values in db.access.atoms.atoms_of_type("point"):
            values["placement"].clear()
            values["face"].clear()
        assert all(values["placement"] and values["face"]
                   for _s, values in db.access.atoms.atoms_of_type("point"))


class TestWritesAreSeen:
    def test_modify(self):
        db, handles = brep_db()
        point = handles.points[0]
        placement = db.get_atom(point)["placement"]
        placement["x_coord"] += 1.0
        db.modify_atom(point, {"placement": placement})
        assert db.get_atom(point)["placement"] == placement

    def test_backref_maintenance_from_an_insert(self):
        db, handles = brep_db()
        a, b = handles.points[0], handles.points[1]
        lines_before = db.get_atom(a)["line"]
        edge = db.insert_atom("edge", {"length": 1.0, "boundary": [a, b]})
        assert db.get_atom(a)["line"] == sorted(lines_before + [edge],
                                                key=repr)
        assert edge in db.get_atom(b)["line"]

    def test_delete_and_restore(self):
        db = Prima()
        db.execute(NODE_DDL)
        atoms = db.access.atoms
        node = atoms.insert("node", {"label": "n", "pos": {"x": 1.0,
                                                          "y": 2.0}})
        values = atoms.get(node)
        atoms.delete(node)
        with pytest.raises(AtomNotFoundError):
            atoms.get(node)
        values["label"] = "back"
        atoms.restore_atom(node, values)
        assert atoms.get(node) == values

    def test_record_that_relocates_on_a_growing_update(self):
        db = Prima()
        db.execute(NODE_DDL)
        atoms = db.access.atoms
        nodes = [atoms.insert("node", {"label": "x" * 40}) for _ in range(150)]
        victim = nodes[0]
        where = atoms.addresses.placement(victim, BASE_STRUCTURE).record
        assert atoms.get(victim)["label"] == "x" * 40     # warm the memo
        for size in (3000, 20000):   # off its full page, then a sequence
            atoms.modify(victim, {"label": "y" * size})
            moved = atoms.addresses.placement(victim, BASE_STRUCTURE).record
            assert moved != where
            assert atoms.get(victim)["label"] == "y" * size
            where = moved

    def test_pinned_snapshot_keeps_its_epoch_across_a_modify(self):
        db, handles = brep_db()
        point = handles.points[0]
        epoch_values = db.get_atom(point)
        snapshot = db.access.atoms.open_snapshot()
        try:
            assert snapshot.get(point) == epoch_values
            moved = dict(epoch_values["placement"], x_coord=-5.0)
            db.modify_atom(point, {"placement": moved})
            assert db.get_atom(point)["placement"] == moved
            assert snapshot.get(point) == epoch_values
            scanned = dict(snapshot.atoms_of_type("point"))
            assert scanned[point] == epoch_values
        finally:
            snapshot.release()
        assert db.get_atom(point)["placement"] == moved


_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "modify", "link", "delete"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    min_size=1, max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(_ops)
def test_reads_equal_decoding_the_stored_record(ops):
    """Under any insert/modify/delete interleaving, a read through the
    memo equals decoding the atom's stored base record afresh."""
    db = Prima()
    db.execute(NODE_DDL)
    atoms = db.access.atoms
    live = []
    for op, a, b in ops:
        if op == "insert" or not live:
            live.append(atoms.insert("node", {
                "label": str(a % 7), "pos": {"x": float(a % 5),
                                             "y": float(b % 3)},
                "next": [live[b % len(live)]] if live and a % 2 else []}))
        elif op == "modify":
            atoms.modify(live[a % len(live)],
                         {"label": "m" * (b % 9), "pos": {"x": float(b),
                                                          "y": 0.0}})
        elif op == "link":
            node = live[a % len(live)]
            targets = atoms.get(node)["next"]
            target = live[b % len(live)]
            if target not in targets:
                atoms.modify(node, {"next": targets + [target]})
        else:
            atoms.delete(live.pop(a % len(live)))
        for surrogate in live:
            assert atoms.get(surrogate) == \
                decode_atom(raw_base_record(db, surrogate))
    assert dict(atoms.atoms_of_type("node")) == {
        s: decode_atom(raw_base_record(db, s)) for s in live}


class TestAtomDecodes:
    def test_a_repeated_select_decodes_nothing(self):
        db, _handles = brep_db()
        db.reset_accounting()
        db.query(BREP_SCAN).materialize()
        first = db.io_report()
        db.reset_accounting()
        db.query(BREP_SCAN).materialize()
        second = db.io_report()
        assert second.get("atom_decodes", 0) == 0
        assert second["atoms_read"] == first["atoms_read"] > 0
        assert second["fixes"] == first["fixes"]

    def test_a_cold_select_decodes_each_distinct_atom_once(self, tmp_path):
        db, _handles = brep_db()
        save(db, tmp_path / "brep.prima")
        cold = load(tmp_path / "brep.prima")
        cold.reset_accounting()
        molecules = cold.query(BREP_SCAN).materialize()
        distinct = {value for molecule in molecules
                    for _label, atom in molecule.atoms()
                    for name, value in atom.items() if name.endswith("_id")}
        report = cold.io_report()
        assert report["atom_decodes"] == len(distinct)
        assert report["atoms_read"] > len(distinct)

    def test_budget_overflow_clears_and_stays_correct(self):
        db = Prima(buffer_capacity=8192)
        db.execute(NODE_DDL)
        atoms = db.access.atoms
        nodes = [atoms.insert("node", {"label": f"{i:0100d}"})
                 for i in range(200)]
        expect = {s: decode_atom(raw_base_record(db, s)) for s in nodes}
        assert dict(atoms.atoms_of_type("node")) == expect
        db.reset_accounting()
        assert dict(atoms.atoms_of_type("node")) == expect
        # 200 records of ~150 bytes do not fit an 8 KiB budget: the
        # second scan decodes again instead of holding them all.
        assert decodes(db) > 0

    def test_threads_sharing_a_clearing_memo_get_right_private_copies(self):
        """Snapshot readers decode outside the engine lock: concurrent
        hits, misses and wholesale clears must never hand out a wrong
        or shared value."""
        atoms = Prima(buffer_capacity=8192).access.atoms
        images = [encode_atom({"n": i, "pos": {"x": float(i)},
                               "refs": [[i], "z" * 120]})
                  for i in range(120)]          # ~18 KiB: clears often
        errors: list[str] = []

        def reader(offset: int) -> None:
            for step in range(1500):
                i = (offset * 37 + step * 11) % len(images)
                values = atoms.decode(images[i])
                if values != {"n": i, "pos": {"x": float(i)},
                              "refs": [[i], "z" * 120]}:
                    errors.append(f"image {i} read as {values!r}")
                    return
                values["pos"]["x"] = -1.0
                values["refs"][0].append(-1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert atoms.counters.get("atom_decodes") > len(images)

    def test_sort_orders_and_partitions_share_the_memo(self, tmp_path):
        db, handles = brep_db()
        db.execute_ldl("CREATE SORT ORDER edge_by_length ON edge (length); "
                       "CREATE PARTITION edge_length ON edge (length)")
        save(db, tmp_path / "tuned.prima")
        db = load(tmp_path / "tuned.prima")      # starts with no memo
        order = db.access.atoms.structure("edge_by_length")
        partition = db.access.atoms.structure("edge_length")
        edge = handles.edges[0]
        db.reset_accounting()
        copy = order.read(edge)
        assert decodes(db) == 1
        assert partition.read(edge) == {"edge_id": edge,
                                        "length": copy["length"]}
        assert decodes(db) == 2
        assert order.read(edge) == copy
        assert partition.read(edge)["length"] == copy["length"]
        assert decodes(db) == 2
        copy["boundary"].clear()
        assert order.read(edge)["boundary"] == db.get_atom(edge)["boundary"]


def surrogates_of(molecules) -> list[Surrogate]:
    """Every surrogate occurrence in a result's atoms, references
    included."""
    found = []
    for molecule in molecules:
        for _label, atom in molecule.atoms():
            for value in atom.values():
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, Surrogate):
                        found.append(item)
    return found


class TestInternedSurrogates:
    def test_one_object_per_logical_address_in_a_result(self):
        db, _handles = brep_db(n_solids=3)
        found = surrogates_of(db.query(BREP_SCAN).materialize())
        assert len(found) > len(set(found))         # atoms share addresses
        assert len({id(s) for s in found}) == len(set(found))

    def test_a_daemon_round_trip_keeps_them_shared(self):
        db, _handles = brep_db(n_solids=3)
        with PrimaDaemon(SessionManager(db)) as daemon, \
                daemon.connect() as conn:
            molecules = conn.query(BREP_SCAN, fetch_size=None).materialize()
        found = surrogates_of(molecules)
        assert len(found) > len(set(found))
        assert len({id(s) for s in found}) == len(set(found))

    def test_a_memo_overflow_clears_the_pool(self):
        db = Prima(buffer_capacity=8192)
        db.execute(NODE_DDL)
        atoms = db.access.atoms
        nodes = [atoms.insert("node", {"label": f"{i:0100d}"})
                 for i in range(200)]
        early = atoms.get(nodes[0])["node_id"]
        assert dict(atoms.atoms_of_type("node")).keys() == set(nodes)
        # The scan overflowed the 8 KiB budget: the pool holds only what
        # the records decoded since the last clear hold.
        assert len(atoms._interned) <= len(atoms._decoded) < len(nodes)
        again = atoms.get(nodes[0])["node_id"]
        assert again == early and again is not early


class TestCheckpointsNeverCarryTheMemo:
    def _db(self) -> Prima:
        db = Prima()
        db.execute(NODE_DDL)
        for i in range(20):
            db.access.insert("node", {"label": f"n{i}",
                                      "pos": {"x": float(i), "y": 1.0}})
        db.commit()
        db.reset_accounting()
        return db

    def test_a_warmed_engine_saves_the_same_bytes(self, tmp_path):
        db = self._db()
        save(db, tmp_path / "cold.prima")
        for surrogate, _values in list(db.access.atoms.atoms_of_type("node")):
            db.get_atom(surrogate)
        assert decodes(db) > 0
        db.reset_accounting()
        save(db, tmp_path / "warm.prima")
        assert (tmp_path / "warm.prima").read_bytes() == \
            (tmp_path / "cold.prima").read_bytes()

    def test_a_warmed_brep_saves_the_same_bytes(self, tmp_path):
        """Reads intern the surrogates of records that reference each
        other; none of that reaches a checkpoint.  (Reads also move the
        buffer's replacement order, so the cold image is the same engine
        with its memo and pool dropped.)"""
        db, _handles = brep_db()
        db.query(BREP_SCAN).materialize()
        atoms = db.access.atoms
        assert atoms._interned
        db.reset_accounting()
        save(db, tmp_path / "warm.prima")
        atoms.forget_decodes()
        save(db, tmp_path / "cold.prima")
        assert (tmp_path / "warm.prima").read_bytes() == \
            (tmp_path / "cold.prima").read_bytes()

    def test_a_round_trip_reads_correctly(self, tmp_path):
        db = self._db()
        expect = dict(db.access.atoms.atoms_of_type("node"))
        save(db, tmp_path / "db.prima")
        loaded = load(tmp_path / "db.prima")
        loaded.reset_accounting()
        assert dict(loaded.access.atoms.atoms_of_type("node")) == expect
        assert decodes(loaded) == len(expect)
        assert {s: loaded.get_atom(s) for s in expect} == expect
        assert decodes(loaded) == len(expect)
