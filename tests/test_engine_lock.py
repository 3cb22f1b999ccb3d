"""The engine mutex: concurrent serving sessions over a small buffer.

Nothing below the serving layer latches — the buffer's fix/unfix/evict,
the replacement policy and the address table are plain Python state —
so every engine-touching message runs under one reentrant mutex
(``SessionManager.engine``), taken once per message in
``Session.handle``.  The regression below is the crash a shared reader
side used to cause: eight or more sessions retrieving whole BREP
molecules over a two-frame buffer failed with ``page ... is not
fixed``, ``OrderedDict mutated during iteration`` or ``cannot free
8192 bytes``.  The surface checks pin the shape so a shared side, or a
second acquisition site, cannot grow back unnoticed.
"""

import ast
import pkgutil
import threading
from pathlib import Path

import pytest

import repro
import repro.util
from repro import Prima
from repro.serve import SessionManager
from repro.workloads import brep

QUERY = "SELECT ALL FROM brep-face-edge-point"
SESSION_PY = Path(repro.__file__).resolve().parent / "serve" / "session.py"


@pytest.fixture(scope="module")
def db():
    database = Prima(buffer_capacity=2 * 8192)
    brep.generate(database, n_solids=8)
    return database


@pytest.fixture(scope="module")
def expected(db):
    return [m.to_dict() for m in db.query(QUERY)]


@pytest.mark.timeout(60)
@pytest.mark.parametrize("threads", [8, 16])
def test_concurrent_sessions_over_a_small_buffer(db, expected, threads):
    manager = SessionManager(db, max_sessions=64)
    barrier = threading.Barrier(threads, timeout=10)
    answers: list[list] = []
    errors: list[BaseException] = []

    def client() -> None:
        try:
            with repro.connect(manager) as conn:
                barrier.wait()
                for _ in range(2):
                    answers.append([m.to_dict() for m in conn.cursor(QUERY)])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=client, daemon=True)
               for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive(), "client thread deadlocked"
    assert not errors, errors
    assert len(answers) == 2 * threads
    assert all(answer == expected for answer in answers)
    buffer = db.storage.buffer
    assert not [page for page in buffer.resident() if buffer.is_fixed(page)]


def test_the_readers_writer_lock_is_gone():
    # repro.util keeps only the counters; no lock module imports from it.
    modules = [m.name for m in pkgutil.iter_modules(repro.util.__path__)]
    assert modules == ["stats"]


def test_the_engine_mutex_is_reentrant(db):
    engine = SessionManager(db).engine
    with engine:
        acquired = engine.acquire(blocking=False)
        assert acquired
        engine.release()


def test_session_takes_the_engine_mutex_in_four_places_only():
    takers = set()
    for node in ast.walk(ast.parse(SESSION_PY.read_text())):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) \
                        and inner.attr == "engine" \
                        and isinstance(inner.value, ast.Attribute) \
                        and inner.value.attr == "manager":
                    takers.add(node.name)
    assert takers == {"handle", "reap_idle", "close", "abort"}
