"""Tests: checkpoint save/load and DDL/LDL round-tripping.

A checkpoint holds the configuration, the schema's DDL, the tuning
structures' LDL and the atoms.  A loaded instance must answer every
statement as the saved one did, with the same plans, and re-save to the
same bytes; a damaged or crafted file must raise ``PrimaError`` and run
nothing.
"""

import pickle
import random
import struct
import zlib

import pytest

import repro
from repro import Prima
from repro.errors import PrimaError
from repro.mad.ddl import atom_type_to_ddl
from repro.persistence import load, save
from repro.workloads import brep, gis, vlsi

MAGIC = b"PRIMA-REPRO\x00"


def inventory(db: Prima) -> list[tuple]:
    return [(s.kind, s.name, s.atom_type)
            for s in db.access.atoms.structures()]


def assert_round_trips(db: Prima, tmp_path, statements: list[str]) -> Prima:
    """Save ``db``, load it, and check the loaded copy against it."""
    path = tmp_path / "db.prima"
    assert save(db, path) == path.stat().st_size
    loaded = load(path)
    for mql in statements:
        assert loaded.query(mql).to_dicts() == db.query(mql).to_dicts(), mql
        assert loaded.explain(mql) == db.explain(mql), mql
    assert loaded.verify_integrity() == []
    assert inventory(loaded) == inventory(db)
    save(loaded, tmp_path / "again.prima")
    assert (tmp_path / "again.prima").read_bytes() == path.read_bytes()
    return loaded


def assert_ldl_reproduces(db: Prima) -> None:
    fresh = Prima()
    fresh.execute_script(db.dump_ddl())
    fresh.execute_ldl(db.dump_ldl())
    assert inventory(fresh) == inventory(db)
    assert fresh.dump_ldl() == db.dump_ldl()


def assert_fresh_surrogate(db: Prima, loaded: Prima, type_name: str,
                           values: dict) -> None:
    """An insert after load gets a number neither engine ever used."""
    expected = db.access.atoms.surrogates.next_numbers()[type_name]
    surrogate = loaded.insert_atom(type_name, values)
    assert surrogate.number == expected
    assert loaded.verify_integrity() == []


ALL_KINDS = {"access_path", "sort_order", "partition", "cluster"}


class TestWorkloadRoundTrips:
    def test_brep(self, tmp_path):
        db = Prima()
        handles = brep.generate(db, n_solids=4)
        db.execute_ldl("""
            CREATE ACCESS PATH f_sq ON face (square_dim);
            CREATE ACCESS PATH b_no ON brep (brep_no) USING GRID;
            CREATE SORT ORDER e_len ON edge (length);
            CREATE PARTITION f_dim ON face (square_dim);
            CREATE ATOM_CLUSTER bc FROM brep-face-edge-point""")
        db.delete_atom(handles.solids[-1])
        db.modify_atom(handles.edges[0], {"length": 99.5})
        db.analyze()
        assert {s.kind for s in db.access.atoms.structures()} == ALL_KINDS
        loaded = assert_round_trips(db, tmp_path, [
            "SELECT ALL FROM brep-face-edge-point",
            "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713",
            "SELECT ALL FROM edge-point ORDER BY length LIMIT 10",
            "SELECT ALL FROM face WHERE square_dim > 0.5",
            "SELECT ALL FROM brep WHERE brep_no >= 2",
            "SELECT ALL FROM solid.sub-solid (RECURSIVE)",
        ])
        assert_ldl_reproduces(db)
        assert_fresh_surrogate(db, loaded, "solid", {"solid_no": 90})

    def test_gis(self, tmp_path):
        db = gis.generate(rows=4, cols=5).db
        db.execute_ldl("""
            CREATE ACCESS PATH r_area ON region (area);
            CREATE ACCESS PATH n_xy ON node (x, y) USING GRID;
            CREATE SORT ORDER l_len ON line (length);
            CREATE PARTITION r_use ON region (land_use);
            CREATE ATOM_CLUSTER mc FROM map-region-line-node""")
        db.analyze("node")
        db.analyze("region")
        loaded = assert_round_trips(db, tmp_path, [
            "SELECT ALL FROM map-region-line-node",
            "SELECT ALL FROM region-line-node WHERE land_use = 'forest'",
            "SELECT ALL FROM node WHERE x = 2.0 AND y < 3.0",
            "SELECT ALL FROM line ORDER BY length LIMIT 5",
            "SELECT region_no, land_use FROM region",
        ])
        assert_ldl_reproduces(db)
        assert_fresh_surrogate(db, loaded, "map", {"map_no": 99})

    def test_vlsi(self, tmp_path):
        db = vlsi.generate(n_cells=24).db
        db.execute_ldl("""
            CREATE ACCESS PATH n_no ON net (net_no);
            CREATE ACCESS PATH c_grid ON cell (cell_no, area) USING GRID;
            CREATE SORT ORDER c_area ON cell (area);
            CREATE PARTITION c_fn ON cell (function);
            CREATE ATOM_CLUSTER nl FROM net-pin-cell""")
        db.analyze()
        loaded = assert_round_trips(db, tmp_path, [
            "SELECT ALL FROM net-pin-cell",
            "SELECT ALL FROM net-pin-cell WHERE net_no = 3",
            "SELECT ALL FROM cell.subcells-cell (RECURSIVE)",
            "SELECT ALL FROM cell WHERE cell_no < 10 AND area > 1.0",
            "SELECT ALL FROM cell ORDER BY area LIMIT 7",
        ])
        assert_ldl_reproduces(db)
        assert_fresh_surrogate(db, loaded, "cell", {"cell_no": 999})


TENK_DDL = ("CREATE ATOM_TYPE tenk (tenk_id: IDENTIFIER, unique1: INTEGER, "
            "unique2: INTEGER, onepct: INTEGER, tenpct: INTEGER, "
            "stringu1: CHAR_VAR) KEYS_ARE (unique2)")


def tenk(rows: int) -> Prima:
    """A Wisconsin ``tenk``-shaped table: ``unique1`` a permutation of
    ``unique2``, with a hole of deleted rows and some grown strings."""
    db = Prima()
    db.execute(TENK_DDL)
    permutation = list(range(rows))
    random.Random(1987).shuffle(permutation)
    atoms = db.access.atoms
    for unique2, unique1 in enumerate(permutation):
        atoms.insert("tenk", {
            "unique1": unique1, "unique2": unique2, "onepct": unique1 % 100,
            "tenpct": unique1 % 10, "stringu1": f"{unique1:07d}AAAA"})
    for unique2 in range(0, rows, 97):
        db.execute("DELETE ALL FROM tenk WHERE unique2 = ?", unique2)
    for unique2 in range(1, rows, 89):
        db.execute("MODIFY tenk SET stringu1 = ? FROM tenk WHERE unique2 = ?",
                   "Z" * 60, unique2)
    return db


class TestTenkRoundTrip:
    def test_tenk(self, tmp_path):
        # 2 000 rows keep this under 2 s.
        db = tenk(2_000)
        db.execute_ldl("""
            CREATE ACCESS PATH t_u1 ON tenk (unique1);
            CREATE ACCESS PATH t_pct ON tenk (onepct, tenpct) USING GRID;
            CREATE SORT ORDER t_str ON tenk (stringu1);
            CREATE PARTITION t_ten ON tenk (tenpct);
            CREATE ATOM_CLUSTER t_cl FROM tenk""")
        db.analyze()
        loaded = assert_round_trips(db, tmp_path, [
            "SELECT ALL FROM tenk WHERE unique2 = 17",
            "SELECT ALL FROM tenk WHERE unique1 < 300",
            "SELECT ALL FROM tenk WHERE onepct = 3 AND tenpct = 3",
            "SELECT ALL FROM tenk ORDER BY stringu1 LIMIT 20",
            "SELECT unique2, tenpct FROM tenk WHERE tenpct = 4",
            "SELECT ALL FROM tenk",
        ])
        assert_ldl_reproduces(db)
        assert_fresh_surrogate(db, loaded, "tenk", {"unique2": 10**6})


class TestPersistence:
    def test_roundtrip_preserves_queries(self, tmp_path):
        db = Prima()
        brep.generate(db, n_solids=3)
        db.execute_ldl("CREATE ACCESS PATH f_sq ON face (square_dim)")
        path = tmp_path / "solids.prima"
        written = save(db, path)
        assert written == path.stat().st_size

        restored = load(path)
        query = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713"
        assert restored.query(query).to_dicts() == db.query(query).to_dicts()
        assert restored.verify_integrity() == []

    def test_restored_instance_is_writable(self, tmp_path):
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER) "
                   "KEYS_ARE (n)")
        db.execute("INSERT a (n = 1)")
        path = tmp_path / "db.prima"
        save(db, path)
        restored = load(path)
        restored.execute("INSERT a (n = 2)")
        assert len(restored.query("SELECT ALL FROM a")) == 2
        # surrogates continue after the checkpoint, never reused
        surrogates = [m.surrogate.number
                      for m in restored.query("SELECT ALL FROM a")]
        assert len(set(surrogates)) == 2

    def test_save_flushes_and_propagates(self, tmp_path):
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
        db.query("SELECT ALL FROM a")
        s = db.insert_atom("a", {"n": 1})
        db.execute_ldl("CREATE PARTITION pn ON a (n)")
        db.modify_atom(s, {"n": 5})
        save(db, tmp_path / "db.prima")
        assert db.access.atoms.deferred.pending_count == 0

    def test_served_engine_checkpoints_unserved(self, tmp_path):
        """Serving managers hold locks and are not data: a checkpoint
        of an engine that was served drops them."""
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
        with repro.connect(db) as conn:
            conn.execute("INSERT a (n = 7)")
        save(db, tmp_path / "db.prima")
        loaded = load(tmp_path / "db.prima")
        assert [m.atom["n"] for m in loaded.query("SELECT ALL FROM a")] \
            == [7]
        assert loaded.session_managers == []
        assert db.session_managers   # the live instance keeps its own

    def test_runtime_state_starts_fresh(self, tmp_path):
        """Configuration is data; counters, tracing and the slow log
        are not."""
        db = Prima(buffer_capacity=40 * 8192, policy="clock")
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
        db.insert_atom("a", {"n": 1})
        db.obs.enable_tracing(1.0)
        db.query("SELECT ALL FROM a").materialize()
        save(db, tmp_path / "db.prima")
        loaded = load(tmp_path / "db.prima")
        assert loaded.storage.buffer.capacity_bytes == 40 * 8192
        assert loaded.storage.buffer.policy.name == "clock"
        assert not loaded.obs.tracer.enabled
        assert loaded.io_report().get("atoms_read", 0) == 0

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PrimaError):
            load(tmp_path / "ghost.prima")

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not_a_db"
        path.write_bytes(b"something else entirely")
        with pytest.raises(PrimaError):
            load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.prima"
        path.write_bytes(MAGIC + (99).to_bytes(4, "little") + b"xx")
        with pytest.raises(PrimaError, match="format version 99"):
            load(path)

    def test_version_two_checkpoint_rejected(self, tmp_path):
        """Version 2 pickled the engine object graph; such a file is
        refused, not converted."""
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
        path = tmp_path / "old.prima"
        save(db, path)
        image = bytearray(path.read_bytes())
        assert int.from_bytes(image[len(MAGIC):len(MAGIC) + 4],
                              "little") == 3
        image[len(MAGIC):len(MAGIC) + 4] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(image))
        with pytest.raises(PrimaError, match="format version 2"):
            load(path)


#: Set by :class:`Payload` if a load ever unpickles it.
RAN: list[str] = []


def record_call(what: str) -> None:
    RAN.append(what)


class Payload:
    def __reduce__(self):
        return record_call, ("unpickled",)


def small_checkpoint(tmp_path) -> bytes:
    db = Prima()
    db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER, "
               "s: CHAR_VAR) KEYS_ARE (n)")
    db.insert_atom("a", {"n": 1, "s": "x"})
    db.insert_atom("a", {"n": 2})
    db.execute_ldl("CREATE ACCESS PATH an ON a (s)")
    save(db, tmp_path / "small.prima")
    return (tmp_path / "small.prima").read_bytes()


class TestHostileFiles:
    @pytest.mark.parametrize("version", [2, 3])
    def test_a_pickle_body_runs_nothing(self, tmp_path, version):
        """A pickle behind a version-2 header (the old format) or a valid
        version-3 header with a matching CRC is refused unread."""
        body = pickle.dumps(Payload())
        header = struct.pack("<I", 2) if version == 2 \
            else struct.pack("<II", 3, zlib.crc32(body))
        path = tmp_path / "crafted.prima"
        path.write_bytes(MAGIC + header + body)
        RAN.clear()
        with pytest.raises(PrimaError, match="crafted.prima"):
            load(path)
        assert RAN == []

    def test_every_truncation_is_refused(self, tmp_path):
        image = small_checkpoint(tmp_path)
        path = tmp_path / "cut.prima"
        for end in range(len(image)):
            path.write_bytes(image[:end])
            with pytest.raises(PrimaError):
                load(path)

    def test_every_byte_flip_is_refused(self, tmp_path):
        image = small_checkpoint(tmp_path)
        path = tmp_path / "flipped.prima"
        for at in range(len(image)):
            damaged = bytearray(image)
            damaged[at] ^= 0xFF
            path.write_bytes(bytes(damaged))
            with pytest.raises(PrimaError):
                load(path)

    @pytest.mark.parametrize("body", [
        b"",                                     # no sections
        struct.pack("<I", 50) + b"short",        # section past the end
        b"".join(struct.pack("<I", 1) + b"\xff" for _ in range(5)),
    ])
    def test_a_malformed_body_with_a_valid_crc_is_refused(self, tmp_path,
                                                          body):
        path = tmp_path / "odd.prima"
        path.write_bytes(MAGIC + struct.pack("<II", 3, zlib.crc32(body))
                         + body)
        with pytest.raises(PrimaError, match="odd.prima"):
            load(path)


class TestDdlRoundTrip:
    def test_atom_type_rendering(self):
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER, "
                   "s: SET_OF (REF_TO (a.t)) (2,VAR), "
                   "t: SET_OF (REF_TO (a.s))) KEYS_ARE (n)")
        text = atom_type_to_ddl(db.schema.atom_type("a"))
        assert "CREATE ATOM_TYPE a" in text
        assert "SET_OF (REF_TO (a.t)) (2,VAR)" in text
        assert "KEYS_ARE (n)" in text

    def _roundtrip(self, db: Prima) -> Prima:
        dumped = db.dump_ddl()
        fresh = Prima()
        fresh.execute_script(dumped)
        return fresh

    def test_brep_schema_roundtrips(self):
        db = Prima()
        brep.install_schema(db)
        fresh = self._roundtrip(db)
        assert fresh.schema.atom_type_names() == \
            db.schema.atom_type_names()
        assert fresh.catalog.names() == db.catalog.names()
        # second-generation dump is a fixpoint
        assert fresh.dump_ddl() == db.dump_ddl()

    def test_gis_schema_roundtrips(self):
        handles = gis.generate(rows=2, cols=2)
        fresh = self._roundtrip(handles.db)
        assert fresh.dump_ddl() == handles.db.dump_ddl()

    def test_roundtripped_schema_is_usable(self):
        db = Prima()
        brep.install_schema(db)
        fresh = self._roundtrip(db)
        # insert through the round-tripped schema
        fresh.query("SELECT ALL FROM solid")
        s = fresh.insert_atom("solid", {"solid_no": 1})
        assert fresh.get_atom(s)["solid_no"] == 1

    def test_attribute_details_preserved(self):
        db = Prima()
        brep.install_schema(db)
        fresh = self._roundtrip(db)
        original = db.schema.atom_type("brep").attr("faces")
        restored = fresh.schema.atom_type("brep").attr("faces")
        assert original == restored
        assert db.schema.atom_type("point").attr("placement") == \
            fresh.schema.atom_type("point").attr("placement")

    def test_recursive_molecule_type_roundtrips(self):
        db = Prima()
        brep.install_schema(db)
        fresh = self._roundtrip(db)
        piece_list = fresh.catalog.get("piece_list")
        assert piece_list is not None and piece_list.recursive
