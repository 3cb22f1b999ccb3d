"""Surface guard: ``Session`` serves, ``Connection`` asks — a second
client surface must not grow back unnoticed."""

import inspect

import repro
from repro.serve import PrimaDaemon, Session, SessionManager
from repro.serve.connection import LocalTransport, SocketTransport


def public(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


def test_serve_loop_and_serve_shims_are_gone():
    assert not {"ServeLoop", "ServeError"} & set(repro.serve.__all__)
    assert not hasattr(repro.serve, "ServeLoop")
    assert not hasattr(repro.errors, "ServeError")
    assert not hasattr(repro.Prima, "serve")
    assert not hasattr(repro.ShardedCluster, "serve")


def test_session_is_server_side_only():
    assert public(Session) == {
        "handle", "close", "abort", "expire", "reap_idle",
        "set_notify_sink", "deliver_notification", "pop_notifications",
        "open_cursors", "open_statements",
    }
    assert {"__enter__", "__exit__"} <= set(vars(Session))


def test_transports_expose_the_same_methods():
    assert public(LocalTransport) - {"session"} == public(SocketTransport) \
        == {"request", "poll_notifications", "close"}
    for name in ("request", "poll_notifications", "close"):
        local, sock = (inspect.signature(getattr(cls, name))
                       for cls in (LocalTransport, SocketTransport))
        assert list(local.parameters) == list(sock.parameters)


def test_serving_constructors_take_only_these_knobs():
    # Knobs no caller sets to two different values are constants; a
    # removed one must not creep back.
    def knobs(cls) -> list[str]:
        return list(inspect.signature(cls).parameters)[1:]

    assert knobs(SessionManager) == [
        "model", "max_sessions", "admission", "queue_timeout",
        "default_fetch_size", "idle_timeout", "session_lease", "clock",
        "max_subscriptions", "notify_interval",
    ]
    assert knobs(PrimaDaemon) == ["host", "port", "reap_interval"]
