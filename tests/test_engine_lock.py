"""The engine mutex: concurrent callers over a small buffer.

Nothing below the engine latches — the buffer's fix/unfix/evict, the
replacement policy and the address table are plain Python state — so
every entry into an engine takes its one reentrant mutex
(``Engine.mutex``): the facade, prepared statements, each pull of a
lazy result set, and each serving message in ``Session.handle``.  A
cluster shares one mutex with its shard engines, and every serving
manager on an engine uses the engine's.  The regressions below are the
crashes a per-manager lock (or none) used to allow: eight callers
retrieving whole molecules over a two-frame buffer failed with ``page
... is not fixed``, ``cannot free 8192 bytes`` or ``KeyError``.  The
surface checks pin the shape so a second lock, or a second acquisition
site in the session, cannot grow back unnoticed.
"""

import ast
import pkgutil
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.util
from repro import Prima, ShardedCluster
from repro.serve import SessionManager
from repro.workloads import brep

QUERY = "SELECT ALL FROM brep-face-edge-point"
ROWS = "SELECT ALL FROM part"
SESSION_PY = Path(repro.__file__).resolve().parent / "serve" / "session.py"


@pytest.fixture(scope="module")
def db():
    database = Prima(buffer_capacity=2 * 8192)
    brep.generate(database, n_solids=8)
    return database


@pytest.fixture(scope="module")
def expected(db):
    return [m.to_dict() for m in db.query(QUERY)]


@pytest.fixture(scope="module")
def cluster():
    # BREP's cross-type REFs cannot span shards: a keyed type instead,
    # large enough to cycle every shard's two frames.
    engine = ShardedCluster(shards=2, buffer_capacity=2 * 8192)
    engine.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                   "name: CHAR_VAR, n: INTEGER) KEYS_ARE (name)")
    for i in range(600):
        engine.insert_atom("part", {"name": f"part-{i:05d}", "n": i})
    return engine


def _drain(result) -> list:
    return [m.to_dict() for m in result]


def _race(engine, threads: int, work, expected: list) -> None:
    """Run ``work(index, ready)`` on ``threads`` threads released together
    by ``ready()``; each returns its answers, all equal to ``expected``."""
    barrier = threading.Barrier(threads, timeout=10)
    answers: list[list] = []
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            answers.extend(work(index, barrier.wait))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often: races show
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive(), "client thread deadlocked"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(answers) == 2 * threads
    assert all(answer == expected for answer in answers)
    for shard in engine.engines:
        buffer = shard.storage.buffer
        assert not [page for page in buffer.resident()
                    if buffer.is_fixed(page)]


@pytest.mark.timeout(60)
@pytest.mark.parametrize("threads", [8, 16])
def test_concurrent_sessions_over_a_small_buffer(db, expected, threads):
    manager = SessionManager(db, max_sessions=64)

    def work(_index, ready):
        with repro.connect(manager) as conn:
            ready()
            return [_drain(conn.cursor(QUERY)) for _ in range(2)]

    _race(db, threads, work, expected)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("caller", ["direct", "two_managers",
                                    "shared_prepared", "cluster"])
def test_concurrent_callers_over_a_small_buffer(request, caller):
    if caller == "cluster":
        engine, query = request.getfixturevalue("cluster"), ROWS
    else:
        engine, query = request.getfixturevalue("db"), QUERY
    expected = _drain(engine.query(query))
    if caller == "two_managers":
        managers = [SessionManager(engine, max_sessions=8) for _ in range(2)]

        def work(index, ready):
            with repro.connect(managers[index % 2]) as conn:
                ready()
                return [_drain(conn.cursor(query)) for _ in range(2)]
    elif caller == "shared_prepared":
        stmt = engine.prepare(query)

        def work(_index, ready):
            ready()
            return [_drain(stmt.execute()) for _ in range(2)]
    else:
        def work(_index, ready):
            ready()
            return [_drain(engine.query(query)) for _ in range(2)]

    _race(engine, 8, work, expected)


def test_the_readers_writer_lock_is_gone():
    # repro.util keeps only the counters; no lock module imports from it.
    modules = [m.name for m in pkgutil.iter_modules(repro.util.__path__)]
    assert modules == ["stats"]


def test_the_engine_mutex_is_reentrant(db):
    with db.mutex:
        acquired = db.mutex.acquire(blocking=False)
        assert acquired
        db.mutex.release()


def test_every_manager_on_an_engine_uses_its_mutex(db):
    first, second = SessionManager(db), SessionManager(db)
    assert not hasattr(first, "engine")
    assert first.db.mutex is second.db.mutex is db.mutex


def test_a_cluster_shares_one_mutex_with_its_shards():
    with ShardedCluster(shards=3) as cluster:
        assert all(engine.mutex is cluster.mutex
                   for engine in cluster.engines)


def test_session_takes_the_engine_mutex_at_entry_and_teardown_only():
    takers = set()
    tree = ast.parse(SESSION_PY.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) \
                        and inner.attr == "mutex":
                    takers.add(node.name)
    # Entry points (a message, a reaper sweep) and the one teardown
    # that close, abort and expire share.
    assert takers == {"handle", "reap_idle", "_teardown"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_lock"]
