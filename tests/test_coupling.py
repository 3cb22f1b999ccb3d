"""Unit tests: workstation-host coupling (checkout/checkin)."""

import pytest

from repro import Prima
from repro.coupling import PrimaServer, Workstation
from repro.errors import CouplingError
from repro.obs.network import NetworkModel, NetworkStats
from repro.workloads import brep

QUERY = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713"


@pytest.fixture
def coupled():
    db = Prima()
    handles = brep.generate(db, n_solids=3)
    server = PrimaServer(db)
    return handles, server, Workstation(server)


class TestCheckout:
    def test_set_oriented_two_messages(self, coupled):
        _handles, server, station = coupled
        result = station.checkout(QUERY)
        assert len(result) == 1
        assert server.stats.messages == 2    # request + response
        assert len(station.buffer) == 27

    def test_record_at_a_time_many_messages(self, coupled):
        _handles, server, station = coupled
        station.checkout(QUERY, set_oriented=False)
        assert server.stats.messages > 2 * 27

    def test_set_oriented_fewer_bytes_than_messages_dominate(self, coupled):
        handles, server, station = coupled
        station.checkout(QUERY)
        set_time = server.stats.comm_time_ms
        other = PrimaServer(handles.db)
        baseline = Workstation(other)
        baseline.checkout(QUERY, set_oriented=False)
        assert other.stats.comm_time_ms > 5 * set_time

    def test_local_reads_cost_nothing(self, coupled):
        handles, server, station = coupled
        station.checkout(QUERY)
        messages = server.stats.messages
        for edge in handles.edges[:5]:
            if edge in station.buffer:
                station.read(edge)
        assert server.stats.messages == messages

    def test_read_not_checked_out_rejected(self, coupled):
        _handles, _server, station = coupled
        from repro.mad.types import Surrogate
        with pytest.raises(CouplingError):
            station.read(Surrogate("edge", 9999))


class TestCheckin:
    def test_modifications_applied_at_commit(self, coupled):
        handles, _server, station = coupled
        result = station.checkout(QUERY)
        edge = result[0].component_list("face")[0] \
            .component_list("edge")[0].surrogate
        station.modify(edge, {"length": 321.0})
        # not yet on the server
        assert handles.db.access.get(edge)["length"] != 321.0
        applied = station.commit()
        assert applied == 1
        assert handles.db.access.get(edge)["length"] == 321.0

    def test_checkin_single_message_pair(self, coupled):
        handles, server, station = coupled
        result = station.checkout(QUERY)
        molecule = result[0]
        for face in molecule.component_list("face"):
            station.modify(face.surrogate, {"square_dim": 1.0})
        before = server.stats.messages
        station.commit()
        assert server.stats.messages == before + 2   # request + ack

    def test_buffer_cleared_after_commit(self, coupled):
        _handles, _server, station = coupled
        station.checkout(QUERY)
        station.commit()
        assert len(station.buffer) == 0

    def test_commit_without_changes(self, coupled):
        _handles, server, station = coupled
        station.checkout(QUERY)
        before = server.stats.messages
        assert station.commit() == 0
        assert server.stats.messages == before   # nothing shipped

    def test_modify_not_checked_out_rejected(self, coupled):
        _handles, _server, station = coupled
        from repro.mad.types import Surrogate
        with pytest.raises(CouplingError):
            station.modify(Surrogate("edge", 9999), {"length": 1.0})

    def test_integrity_after_checkin(self, coupled):
        handles, _server, station = coupled
        station.checkout(QUERY)
        for edge in list(station.buffer._atoms):  # noqa: SLF001
            if edge.atom_type == "edge":
                station.modify(edge, {"length": 2.0})
        station.commit()
        assert handles.db.verify_integrity() == []


class TestNetworkModel:
    def test_transfer_time_model(self):
        model = NetworkModel(per_message_ms=5.0, bytes_per_ms=1000.0)
        assert model.transfer_ms(0) == 5.0
        assert model.transfer_ms(1000) == 6.0

    def test_stats_accumulate(self):
        stats = NetworkStats()
        model = NetworkModel()
        stats.account(model, 100)
        stats.account(model, 200)
        assert stats.messages == 2
        assert stats.bytes_sent == 300
        snapshot = stats.snapshot()
        assert snapshot["messages"] == 2

    def test_checkin_unknown_atom_rejected(self, coupled):
        handles, server, _station = coupled
        from repro.mad.types import Surrogate
        with pytest.raises(CouplingError):
            server.checkin({Surrogate("edge", 99999): {"length": 1.0}})


class TestLocalCreation:
    """Newly created molecules move back to PRIMA at commit (section 4)."""

    def test_create_and_commit(self, coupled):
        handles, server, station = coupled
        station.checkout(QUERY)
        temp = station.create("solid", {"solid_no": 700,
                                        "description": "drafted locally"})
        assert temp.number < 0          # temporary surrogate
        applied = station.commit()
        assert applied >= 1
        real = station.last_mapping[temp]
        assert real.number > 0
        assert handles.db.access.get(real)["solid_no"] == 700

    def test_creation_referencing_checked_out_atom(self, coupled):
        handles, _server, station = coupled
        station.checkout("SELECT ALL FROM solid WHERE solid_no = 1")
        parent = station.create("solid", {
            "solid_no": 701,
            "sub": [handles.solids[0]],
        })
        station.commit()
        real = station.last_mapping[parent]
        assert handles.db.access.get(real)["sub"] == [handles.solids[0]]
        assert handles.db.verify_integrity() == []

    def test_creations_referencing_each_other(self, coupled):
        handles, _server, station = coupled
        child = station.create("solid", {"solid_no": 702})
        parent = station.create("solid", {"solid_no": 703, "sub": [child]})
        station.commit()
        real_child = station.last_mapping[child]
        real_parent = station.last_mapping[parent]
        assert handles.db.access.get(real_parent)["sub"] == [real_child]
        assert handles.db.access.get(real_child)["super"] == [real_parent]
        assert handles.db.verify_integrity() == []

    def test_creation_then_local_modify(self, coupled):
        handles, _server, station = coupled
        temp = station.create("solid", {"solid_no": 704})
        station.modify(temp, {"description": "renamed before checkin"})
        station.commit()
        real = station.last_mapping[temp]
        assert handles.db.access.get(real)["description"] == \
            "renamed before checkin"

    def test_creation_deleted_before_commit_never_ships(self, coupled):
        handles, server, station = coupled
        before = handles.db.access.atoms.count("solid")
        temp = station.create("solid", {"solid_no": 705})
        station.delete(temp)
        messages = server.stats.messages
        assert station.commit() == 0
        assert server.stats.messages == messages
        assert handles.db.access.atoms.count("solid") == before

    def test_checked_out_delete_ships(self, coupled):
        handles, _server, station = coupled
        station.checkout("SELECT ALL FROM solid WHERE sub = EMPTY")
        victims = [m.surrogate for m in
                   handles.db.query("SELECT ALL FROM solid "
                                    "WHERE description = 'box solid 3'")]
        station.delete(victims[0])
        station.commit()
        assert not handles.db.access.atoms.exists(victims[0])

    def test_checkin_stays_one_message_pair(self, coupled):
        _handles, server, station = coupled
        station.checkout(QUERY)
        for index in range(5):
            station.create("solid", {"solid_no": 710 + index})
        before = server.stats.messages
        station.commit()
        assert server.stats.messages == before + 2
