"""Surface guard: one engine facade — ``Prima`` and ``ShardedCluster``
inherit it from ``Engine``; a hand-written mirror or a duck-type probe
must not grow back unnoticed."""

import pickle
import re
from pathlib import Path

import pytest

import repro
from repro import Prima, ShardedCluster
from repro.engine import Engine
from repro.mql.parser import parse_script

SRC = Path(repro.__file__).resolve().parent

#: The facade both configurations share — defined on ``Engine`` only.
FACADE = {
    "prepare", "execute", "query", "execute_script", "explain",
    "trace", "insert_atom", "get_atom", "modify_atom", "delete_atom",
    "attach_sessions", "dump_ddl", "io_report", "obs", "metrics_report",
    "reset_accounting", "close", "__enter__", "__exit__", "mutex",
}

#: What is allowed to differ between the two public surfaces.
PRIMA_ONLY = {"storage", "ldl"}
CLUSTER_ONLY = {"router", "channels", "service_model", "place_insert",
                "bill_shard", "service_report", "advise_ranges"}

DDL = ("CREATE ATOM_TYPE city (city_id: IDENTIFIER, name: CHAR_VAR, "
       "pop: INTEGER, grp: INTEGER) KEYS_ARE (name)")

#: The ``TestScatterParity`` query set of ``tests/test_sharding.py``.
PARITY_QUERIES = (
    "SELECT ALL FROM city",
    "SELECT ALL FROM city ORDER BY pop DESC LIMIT 10",
    "SELECT ALL FROM city ORDER BY pop DESC LIMIT 8 OFFSET 5",
    "SELECT ALL FROM city ORDER BY pop",
    "SELECT ALL FROM city WHERE pop > 1100 AND grp = 2 ORDER BY pop",
    "SELECT (name) FROM city ORDER BY pop DESC LIMIT 5",
)


def public(obj) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_facade_methods_live_only_on_engine():
    assert issubclass(Prima, Engine) and issubclass(ShardedCluster, Engine)
    assert FACADE <= set(vars(Engine))
    for cls in (Prima, ShardedCluster):
        assert not FACADE & set(vars(cls)), cls


def test_public_surfaces_differ_only_by_the_allow_list():
    with Prima() as db, ShardedCluster(shards=2) as cluster:
        assert public(db) - public(cluster) == PRIMA_ONLY
        assert public(cluster) - public(db) == CLUSTER_ONLY
        assert (db.shard_count, db.engines) == (1, [db])
        assert cluster.shard_count == len(cluster.engines) == 2


def test_no_duck_type_probe_is_left_under_src():
    probe = re.compile(
        r'is_cluster|getattr\([^)]*"(shard_count|attach_network|'
        r'attach_sessions|engines|_session_managers)"')
    hits = [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if probe.search(line)]
    assert not hits


def test_cluster_dump_ddl_matches_the_oracle_and_round_trips():
    with Prima() as oracle, ShardedCluster(shards=3) as cluster:
        for db in (oracle, cluster):
            db.execute(DDL)
            db.execute("DEFINE MOLECULE_TYPE town FROM city")
        text = cluster.dump_ddl()
        assert text == oracle.dump_ddl()
        assert len(parse_script(text)) == 2


@pytest.mark.parametrize("mql", PARITY_QUERIES)
def test_one_shard_cluster_is_byte_identical_to_prima(mql):
    answers = []
    for db in (Prima(), ShardedCluster(shards=1)):
        with repro.connect(db) as conn:
            conn.execute(DDL)
            for i in range(40):
                conn.execute("INSERT city (name = ?, pop = ?, grp = ?)",
                             f"c{i}", 1000 + i * 7, i % 6)
            answers.append(pickle.dumps(conn.query(mql).to_dicts()))
        db.close()
    assert answers[0] == answers[1]


def test_every_prepared_handle_is_a_prepared_statement():
    from repro.data.prepared import PreparedStatement
    with Prima() as db, ShardedCluster(shards=2) as cluster:
        for engine in (db, cluster):
            engine.execute(DDL)
            # plain, then three literal variants (the second and third
            # ride the shared template), then DML
            handles = [engine.prepare("SELECT ALL FROM city WHERE pop = ?")]
            for pop in (1, 2, 3):
                handles.append(engine.prepare(
                    f"SELECT ALL FROM city WHERE pop = {pop}"))
            handles.append(engine.prepare("INSERT city (name = 'x')"))
            with repro.connect(engine) as conn:
                for grp in (1, 2):
                    conn.prepare(f"SELECT ALL FROM city WHERE grp = {grp}")
                handles.extend(conn.session._statements.values())
            assert len(handles) == 7
            for handle in handles:
                assert isinstance(handle, PreparedStatement), handle


def test_cluster_handle_inherits_the_statement_surface():
    # A cluster has no handle class of its own: its prepare() returns
    # the plain statement handle, whose whole surface serves it.
    import repro.shard as shard
    from repro.data.prepared import PreparedStatement
    with ShardedCluster(shards=2) as cluster:
        cluster.execute(DDL)
        stmt = cluster.prepare("SELECT ALL FROM city WHERE name = ?")
        assert type(stmt) is PreparedStatement
    assert not [name for name in vars(shard) if "Prepared" in name]


def test_retired_statement_surfaces_are_gone():
    import repro.data.prepared as prepared
    import repro.live as live
    from repro.data.executor import DataSystem
    from repro.shard import Coordinator
    assert not hasattr(prepared, "BoundTemplateStatement")
    for name in ("open_result", "execute_text", "auto_parameterize"):
        assert not hasattr(DataSystem, name), name
    with Prima() as db:
        assert not hasattr(db.data, "auto_parameterize")
    for name in ("open_result", "execute_text", "_open", "_gather",
                 "_watch", "_open_pipe", "_select_statement"):
        assert not hasattr(Coordinator, name), name
    assert not hasattr(live, "dependency_types")
    assert "dependency_types" not in live.__all__
