"""Unit tests: atom clusters (Fig. 3.2)."""

import sys

import pytest

from repro import Prima
from repro.errors import AccessError
from repro.mad.molecule import StructureNode


@pytest.fixture
def clustered(face_edge_access):
    access = face_edge_access
    edges = [access.insert("edge", {"length": float(i)}) for i in range(6)]
    faces = [access.insert("face", {"square_dim": float(i),
                                    "border": edges[2 * i:2 * i + 2]})
             for i in range(3)]
    structure = StructureNode("face", "face")
    structure.add_child(StructureNode(
        "edge", "edge", via=access.schema.association("face", "border")))
    cluster = access.create_cluster("fc", structure)
    return access, edges, faces, cluster


class TestMaterialisation:
    def test_one_cluster_per_root(self, clustered):
        _access, _edges, faces, cluster = clustered
        assert cluster.cluster_count == 3
        assert cluster.roots() == sorted(faces)

    def test_characteristic_atom(self, clustered):
        _access, edges, faces, cluster = clustered
        char = cluster.characteristic(faces[0])
        assert char["root"] == faces[0]
        assert set(char["members"]["edge"]) == set(edges[0:2])
        assert faces[0] in char["members"]["face"]

    def test_read_cluster_groups_by_label(self, clustered):
        _access, _edges, faces, cluster = clustered
        members = cluster.read_cluster(faces[1])
        assert len(members["edge"]) == 2
        assert len(members["face"]) == 1

    def test_read_member_relative_addressing(self, clustered):
        _access, edges, faces, cluster = clustered
        atom = cluster.read_member(faces[0], edges[1])
        assert atom["length"] == 1.0

    def test_read_member_unknown_rejected(self, clustered):
        _access, edges, faces, cluster = clustered
        with pytest.raises(AccessError):
            cluster.read_member(faces[0], edges[5])

    def test_unknown_root_rejected(self, clustered):
        access, _edges, _faces, cluster = clustered
        ghost = access.insert("face")
        access.delete(ghost)
        with pytest.raises(AccessError):
            cluster.read_cluster(ghost)

    def test_new_root_insert_materialises(self, clustered):
        access, edges, _faces, cluster = clustered
        new_face = access.insert("face", {"border": [edges[0]]})
        assert new_face in cluster.roots()
        assert len(cluster.read_cluster(new_face)["edge"]) == 1


class TestStaleness:
    def test_member_modify_marks_stale(self, clustered):
        access, edges, faces, cluster = clustered
        access.modify(edges[0], {"length": 99.0})
        assert cluster.is_stale(faces[0])

    def test_lazy_refresh_on_read(self, clustered):
        access, edges, faces, cluster = clustered
        access.modify(edges[0], {"length": 99.0})
        atom = cluster.read_member(faces[0], edges[0])
        assert atom["length"] == 99.0
        assert not cluster.is_stale(faces[0])

    def test_propagate_refreshes(self, clustered):
        access, edges, faces, cluster = clustered
        access.modify(edges[0], {"length": 42.0})
        access.propagate_deferred()
        assert not cluster.is_stale(faces[0])
        assert cluster.read_member(faces[0], edges[0])["length"] == 42.0

    def test_connection_change_updates_membership(self, clustered):
        access, edges, faces, cluster = clustered
        access.modify(faces[0], {"border": [edges[5]]})
        access.propagate_deferred()
        members = set(cluster.members_of(faces[0], "edge"))
        assert members == {edges[5]}

    def test_member_delete_rebuilds(self, clustered):
        access, edges, faces, cluster = clustered
        access.delete(edges[0])
        members = set(cluster.members_of(faces[0], "edge"))
        assert members == {edges[1]}

    def test_root_delete_drops_cluster(self, clustered):
        access, _edges, faces, cluster = clustered
        access.delete(faces[0])
        assert faces[0] not in cluster.roots()
        assert cluster.cluster_count == 2


class TestSharedMembers:
    def test_nm_member_in_two_clusters(self, clustered):
        access, edges, faces, cluster = clustered
        # connect edge 0 to face 1 as well (n:m sharing)
        border = access.get(faces[1])["border"] + [edges[0]]
        access.modify(faces[1], {"border": border})
        access.propagate_deferred()
        in_0 = set(cluster.members_of(faces[0], "edge"))
        in_1 = set(cluster.members_of(faces[1], "edge"))
        assert edges[0] in in_0 and edges[0] in in_1

    def test_shared_member_modify_staleness_both(self, clustered):
        access, edges, faces, cluster = clustered
        border = access.get(faces[1])["border"] + [edges[0]]
        access.modify(faces[1], {"border": border})
        access.propagate_deferred()
        access.modify(edges[0], {"length": 7.0})
        assert cluster.is_stale(faces[0]) and cluster.is_stale(faces[1])


class TestRecursiveCluster:
    def test_recursive_structure_materialised(self, db):
        db.execute_script("""
        CREATE ATOM_TYPE part (part_id: IDENTIFIER, part_no: INTEGER,
          sub: SET_OF (REF_TO (part.super)),
          super: SET_OF (REF_TO (part.sub))) KEYS_ARE (part_no)
        """)
        db.query("SELECT ALL FROM part")
        leaf1 = db.insert_atom("part", {"part_no": 1})
        leaf2 = db.insert_atom("part", {"part_no": 2})
        mid = db.insert_atom("part", {"part_no": 3, "sub": [leaf1]})
        db.execute_ldl("CREATE ATOM_CLUSTER pc FROM part.sub-part (RECURSIVE)")
        top = db.insert_atom("part", {"part_no": 4, "sub": [mid, leaf2]})
        cluster = db.access.atoms.structure("pc")
        members = set(cluster.members_of(top, "part"))
        assert members == {top, mid, leaf1, leaf2}

    def test_drop_cluster_releases_storage(self, clustered):
        access, _edges, _faces, cluster = clustered
        segment = cluster._segment  # noqa: SLF001
        access.drop_structure("fc")
        assert not access.storage.segments.exists(segment)


class TestClusteredScanCost:
    """Building a molecule from a cluster probes its root in O(1): the
    Python calls per molecule do not grow with the number of clusters."""

    @staticmethod
    def _calls_per_molecule(rows: int) -> float:
        db = Prima()
        db.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, n: INTEGER)")
        for n in range(rows):
            db.insert_atom("t", {"n": n})
        db.execute_ldl("CREATE ATOM_CLUSTER t_cl FROM t")
        db.query("SELECT ALL FROM t").materialize()   # warm
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = db.query("SELECT ALL FROM t")
            molecules = result.materialize()
            result.close()
        finally:
            sys.setprofile(previous)
        assert len(molecules) == rows
        assert db.io_report()["molecules_from_cluster"] >= rows
        return calls / rows

    def test_calls_per_molecule_do_not_grow(self):
        small, large = self._calls_per_molecule(200), \
            self._calls_per_molecule(2_000)
        assert large <= small * 1.05
