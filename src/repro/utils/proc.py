"""Child processes of the network tiers: one spawn, one handle, one fleet.

Shard workers, serving daemons and routers all start as ``python -m
MODULE --bind HOST:0 ...`` (port 0: the kernel picks a free port) and
print one ready line, ``REPRO-READY host port pid``, which :func:`spawn`
blocks on instead of polling the port.  :class:`Fleet` keeps ``size``
children running and respawns dead ones at a **new** address, so
callers that place work by address re-read :meth:`Fleet.addresses`.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.utils.errors import ReproError, ValidationError

READY_TAG = "REPRO-READY"
#: how long :func:`spawn` waits for the ready line.
SPAWN_TIMEOUT = 60.0


def announce(address: str) -> None:
    """Print the ready line for ``address`` (``host:port``) on stdout."""
    host, port = address.rsplit(":", 1)
    print(f"{READY_TAG} {host} {port} {os.getpid()}", flush=True)


class Spawned:
    """A child at ``address``: ``terminate`` asks for a graceful drain
    (SIGTERM); ``kill`` is the chaos primitive (SIGKILL, reap, close
    pipes) and safe on a child that already exited."""

    def __init__(self, process: subprocess.Popen, address: str) -> None:
        self.process = process
        self.address = address

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self) -> None:
        if self.alive():
            self.process.terminate()

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        """The exit code, or ``None`` if still running after ``timeout``."""
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def kill(self) -> None:
        self.process.kill()  # Popen sends nothing once it has reaped
        self.wait(timeout=5)
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()


def spawn(
    module: str,
    argv: Sequence[str] = (),
    *,
    bind_host: str = "127.0.0.1",
    env: Optional[Dict[str, str]] = None,
    capture_stderr: bool = False,
    error: Type[ReproError] = ReproError,
    what: Optional[str] = None,
) -> Spawned:
    """Start ``python -m module --bind bind_host:0 *argv``; wait for ready.

    The child inherits the parent's full import path, the way
    multiprocessing's spawn does it: shard tasks are pickled by
    reference, so whatever module defines them must be importable there
    too.  A child that exits, prints anything else, or stays silent for
    :data:`SPAWN_TIMEOUT` first is killed and raised as ``error`` (the
    caller's type) with its exit code and output (stdout, plus stderr
    when ``capture_stderr``).
    """
    import repro

    child_env = dict(os.environ, **(env or {}))
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    paths = [package_root] + [p for p in sys.path if p]
    if child_env.get("PYTHONPATH"):
        paths.append(child_env["PYTHONPATH"])
    child_env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    process = subprocess.Popen(
        [sys.executable, "-m", module, "--bind", f"{bind_host}:0", *argv],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL,
        text=True,
    )
    started = time.monotonic()
    ready, _, _ = select.select([process.stdout], [], [], SPAWN_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    if not line.startswith(READY_TAG):
        process.kill()
        process.wait()
        output = line + (process.stderr.read() if capture_stderr else "")
        Spawned(process, "").kill()  # closes the pipes
        raise error(
            f"{what or module} failed to start (output: {output!r}, "
            f"exit={process.returncode}, waited "
            f"{time.monotonic() - started:.1f}s)"
        )
    _, host, port, _pid = line.split()
    return Spawned(process, f"{host}:{port}")


class Fleet:
    """Keeps ``size`` children of ``spawn_fn`` (a zero-argument callable
    returning a :class:`Spawned`, e.g. ``partial(spawn_daemon,
    argv_extra=[...])``) running.  With ``respawn`` off, a dead member
    stays listed until :meth:`replace` drops it."""

    def __init__(
        self,
        spawn_fn: Callable[[], Spawned],
        size: int,
        respawn: bool = True,
    ) -> None:
        if size < 1:
            raise ValidationError(f"a Fleet needs size >= 1, got {size}")
        self.spawn_fn = spawn_fn
        self.size = int(size)
        self.respawn = bool(respawn)
        self._members: List[Spawned] = []
        self._started = False
        self._lock = threading.RLock()

    def ensure(self) -> None:
        """Bring the fleet up (idempotent); respawn dead members."""
        with self._lock:
            if not self._started:
                self._started = True
                try:
                    for _ in range(self.size):
                        self._members.append(self.spawn_fn())
                except BaseException:
                    self.close()  # no half-started fleet outlives a failure
                    raise
            elif self.respawn:
                for member in list(self._members):
                    if not member.alive():
                        self.replace(member.address)

    def addresses(self) -> List[str]:
        """Member addresses, dead ones included, in spawn order."""
        with self._lock:
            return [member.address for member in self._members]

    def alive(self) -> List[str]:
        with self._lock:
            return [m.address for m in self._members if m.alive()]

    def member(self, address: str) -> Spawned:
        with self._lock:
            for member in self._members:
                if member.address == address:
                    return member
        raise ValidationError(f"no fleet member at {address!r}")

    def replace(self, address: str) -> Optional[str]:
        """Kill and drop the member at ``address``, then — with
        ``respawn`` on — start a successor and return its address."""
        with self._lock:
            member = self.member(address)
            member.kill()
            self._members.remove(member)
            if not self.respawn:
                return None
            self._members.append(self.spawn_fn())
            return self._members[-1].address

    def close(self) -> None:
        """Kill every member; a later :meth:`ensure` starts afresh."""
        with self._lock:
            members, self._members = self._members, []
            self._started = False
        for member in members:
            member.kill()

    def __enter__(self) -> "Fleet":
        self.ensure()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
