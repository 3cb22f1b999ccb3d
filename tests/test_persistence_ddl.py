"""Tests: checkpoint save/load and DDL round-tripping."""

import pathlib
import pickle

import pytest

import repro
from repro import Prima
from repro.errors import PrimaError
from repro.mad.ddl import atom_type_to_ddl, dump_schema
from repro.mad.molecule import MoleculeType, MoleculeTypeCatalog, StructureNode
from repro.persistence import load, save
from repro.workloads import brep, gis


class TestPersistence:
    def test_roundtrip_preserves_queries(self, tmp_path):
        db = Prima()
        handles = brep.generate(db, n_solids=3)
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

    def test_catalog_unpickles_from_its_old_module_path(self):
        """Checkpoints written before ``MoleculeTypeCatalog`` moved to
        :mod:`repro.mad.molecule` name ``repro.data.validation``."""
        catalog = MoleculeTypeCatalog()
        catalog.define(MoleculeType("m", StructureNode("a", "a")))
        old = pickle.dumps(catalog, protocol=0).replace(
            b"repro.mad.molecule\nMoleculeTypeCatalog",
            b"repro.data.validation\nMoleculeTypeCatalog")
        assert b"repro.data.validation" in old
        restored = pickle.loads(old)
        assert isinstance(restored, MoleculeTypeCatalog)
        assert (restored.names(), restored.version) == (["m"], 1)

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
        path.write_bytes(b"PRIMA-REPRO\x00" + (99).to_bytes(4, "little")
                         + b"xx")
        with pytest.raises(PrimaError) as err:
            load(path)
        assert "version" in str(err.value)

    def test_version_one_checkpoint_rejected(self, tmp_path):
        """Version 1 used an additive page checksum and dataclass page and
        record ids; such a file is refused, not converted."""
        db = Prima()
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
        path = tmp_path / "old.prima"
        save(db, path)
        image = bytearray(path.read_bytes())
        magic = len(b"PRIMA-REPRO\x00")
        assert int.from_bytes(image[magic:magic + 4], "little") == 2
        image[magic:magic + 4] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(image))
        with pytest.raises(PrimaError, match="format version 1"):
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
