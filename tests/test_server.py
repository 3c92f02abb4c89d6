"""``stop()`` means stopped, for both framed-TCP servers.

When :meth:`ServeDaemon.stop` / :meth:`RouterDaemon.stop` returns, the
accept thread has exited, a connect to the old address is refused (not
accepted and then reset), and a connection that was open is ended.  A
listener that is only ``close()``d while the accept thread still polls
it stays listening in the kernel until that poll returns, so a racing
connect completes and then gets an RST — several start/stop cycles make
that window show.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.serve import (
    RouterConfig,
    RouterDaemon,
    ServeClient,
    ServeConfig,
    ServeDaemon,
)

CYCLES = 8


def _accept_threads() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name.endswith("-accept")
    }


def _assert_stop_means_stopped(make_server) -> None:
    for _ in range(CYCLES):
        before = _accept_threads()
        server = make_server()
        address = server.start()
        accept = _accept_threads() - before
        assert accept, "the server runs an accept thread"
        host, port = address.rsplit(":", 1)
        open_conn = socket.create_connection((host, int(port)), timeout=5)
        try:
            with ServeClient(address) as client:
                assert client.ping()
            server.stop(drain=False)
            assert not [t for t in accept if t.is_alive()]
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((host, int(port)), timeout=5)
            open_conn.settimeout(5)
            assert open_conn.recv(1) == b""  # ended, not left hanging
        finally:
            open_conn.close()


@pytest.fixture(scope="module")
def backend():
    daemon = ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=1))
    daemon.start()
    yield daemon
    daemon.stop(drain=False)


def test_serve_daemon_stop_means_stopped():
    _assert_stop_means_stopped(
        lambda: ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=1))
    )


def test_router_daemon_stop_means_stopped(backend):
    _assert_stop_means_stopped(
        lambda: RouterDaemon(RouterConfig(
            daemons=(backend.address,), bind="127.0.0.1:0",
        ))
    )
