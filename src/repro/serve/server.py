"""The framed-TCP server under the serving daemon and the router.

:class:`FramedServer` binds and listens, runs one accept thread
(``TCP_NODELAY`` on every connection) and one thread per connection
looping ``recv_frame`` → :func:`~repro.serve.protocol.check_request` →
handler → ``send_frame``, with exceptions turned into
:func:`~repro.serve.protocol.error_reply`.  ``ping`` / ``health`` /
``stats`` / ``drain`` are answered inline through callables the owner
hands in — so monitoring keeps working while the owner's queue sheds
load — and ``submit`` goes to the owner's handler, which may return
``None`` to drop the connection (its client vanished mid-request).

The shard worker keeps its own serial loop (see :mod:`repro.shard.worker`).
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
from typing import Any, Callable, Dict, Optional

from repro.serve.protocol import check_request, error_reply
from repro.shard.remote import listen, recv_frame, send_frame
from repro.utils.errors import ReproError
from repro.utils.proc import announce

#: accept() poll period; only matters where shutdown() of a listening
#: socket does not wake a blocked accept() (Linux wakes it at once).
ACCEPT_POLL = 0.2


class FramedServer:
    """One listener plus its accept and connection threads.

    ``submit(sock, message)`` answers submits, ``health()`` answers
    ``health`` and ``stats``, ``drain()`` runs for ``drain``, and
    ``ping`` holds extra fields of the ``ping`` reply.  ``name`` prefixes
    thread names and bind errors.
    """

    def __init__(
        self,
        bind: str,
        authkey: bytes,
        submit: Callable[[socket.socket, Dict[str, Any]], Optional[dict]],
        health: Callable[[], Dict[str, Any]],
        drain: Callable[[], None],
        ping: Optional[Dict[str, Any]] = None,
        name: str = "serve",
    ) -> None:
        self.bind = bind
        self.authkey = authkey
        self.name = name
        self._submit = submit

        def _drain() -> Dict[str, Any]:
            drain()
            return {"ok": True, "draining": True}

        self._ops = {
            "ping": lambda: {"ok": True, "pid": os.getpid(), **(ping or {})},
            "health": health,
            "stats": health,
            "drain": _drain,
        }
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self.address: Optional[str] = None

    def start(self) -> str:
        """Bind, listen, start accepting; returns the actual ``host:port``."""
        self._listener = listen(self.bind, what=f"{self.name} bind")
        self._listener.settimeout(ACCEPT_POLL)
        host, port = self._listener.getsockname()[:2]
        self.address = f"{host}:{port}"
        self._accept_thread = self._thread(self._accept_loop, "accept")
        return self.address

    def stop(self) -> None:
        """Stopped means stopped: on return the listener is shut down (a
        connect is refused — a bare ``close()`` leaves the kernel
        listening until the accept poll returns, so a racing connect is
        accepted and then reset), the accept thread has exited, and
        every open connection is shut down."""
        self._stopping.set()
        if self._listener is None:
            return
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._accept_thread.join()
        self._listener.close()
        with self._lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _thread(self, target, role: str, *args) -> threading.Thread:
        thread = threading.Thread(
            target=target, args=args, name=f"repro-{self.name}-{role}",
            daemon=True,
        )
        thread.start()
        return thread

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # the listener was shut down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._connections.add(conn)
            self._thread(self._serve_connection, "conn", conn)

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    sock.settimeout(None)
                    message = recv_frame(sock, self.authkey)
                except Exception:
                    return  # closed, reset, or not one of our frames
                try:
                    message = check_request(message)
                    op = self._ops.get(message["op"])
                    reply = op() if op else self._submit(sock, message)
                except Exception as error:  # never kill the connection
                    reply = error_reply(error)
                if reply is None:
                    return  # the client vanished mid-request
                send_frame(sock, reply, self.authkey)
        except OSError:
            pass  # the peer went away mid-send
        finally:
            with self._lock:
                self._connections.discard(sock)
            sock.close()


def run_until_signalled(build: Callable[[], Any], bind: str) -> Any:
    """``build()`` a daemon, start it, announce its ready line and block
    until SIGTERM or SIGINT; returns the daemon for the caller's drain.

    A startup failure (bad config, bind error) prints one ``error:``
    line instead of a traceback and returns ``None``.  The handlers go
    in before the announcement, so a parent that signals as soon as it
    reads the line still gets the graceful drain; they only set an event
    (async-signal-safe).
    """
    try:
        daemon = build()
        address = daemon.start()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    except OSError as error:
        print(f"error: cannot bind {bind}: {error}", file=sys.stderr)
        return None
    shutdown = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: shutdown.set())
    announce(address)
    shutdown.wait()
    return daemon
