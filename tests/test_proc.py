"""The shared process layer (:mod:`repro.utils.proc`) and the network
helpers of :mod:`repro.shard.remote` every tier uses.

A :class:`Fleet` of shard workers respawns a killed member at a new
address and leaves no live child behind on close; a child that dies
before its ready line raises the caller's error type with its output;
the frame key resolves flag > environment > development default.
"""

from __future__ import annotations

import pytest

from repro.serve import spawn_daemon
from repro.shard.remote import (
    DEFAULT_AUTHKEY,
    WorkerClient,
    resolve_authkey,
    spawn_worker,
)
from repro.utils.errors import ServeError, ShardError, ValidationError
from repro.utils.proc import Fleet, spawn


class TestFleet:
    def test_killed_member_respawns_at_new_address(self):
        with Fleet(spawn_worker, 2) as fleet:
            first, second = fleet.addresses()
            fleet.member(first).kill()
            assert fleet.alive() == [second]
            fleet.ensure()
            addresses = fleet.addresses()
            assert len(addresses) == 2
            assert first not in addresses and second in addresses
            assert sorted(fleet.alive()) == sorted(addresses)
            (successor,) = set(addresses) - {second}
            client = WorkerClient(successor)
            try:
                assert client.ping()
            finally:
                client.close()

    def test_close_leaves_no_live_child(self):
        fleet = Fleet(spawn_worker, 2)
        fleet.ensure()
        members = [fleet.member(a) for a in fleet.addresses()]
        assert all(member.alive() for member in members)
        fleet.close()
        assert fleet.addresses() == []
        assert not any(member.alive() for member in members)
        assert all(m.process.returncode is not None for m in members)

    def test_replace_without_respawn_drops_the_member(self):
        with Fleet(spawn_worker, 1, respawn=False) as fleet:
            (address,) = fleet.addresses()
            member = fleet.member(address)
            member.kill()
            fleet.ensure()  # respawn off: the dead member stays listed
            assert fleet.addresses() == [address]
            assert fleet.replace(address) is None
            assert fleet.addresses() == []
            with pytest.raises(ValidationError, match="no fleet member"):
                fleet.member(address)

    def test_size_must_be_positive(self):
        with pytest.raises(ValidationError, match="size >= 1"):
            Fleet(spawn_worker, 0)


class TestSpawnFailure:
    def test_worker_dying_before_ready_raises_shard_error(self):
        # an empty host fails the worker's bind validation: exit 2
        with pytest.raises(ShardError, match="remote worker failed.*exit=2"):
            spawn_worker(bind_host="")

    def test_daemon_dying_before_ready_raises_serve_error(self):
        with pytest.raises(ServeError) as excinfo:
            spawn_daemon(["--queue-depth", "0"], capture_stderr=True)
        message = str(excinfo.value)
        assert "serve daemon failed to start" in message
        assert "queue_depth must be >= 1" in message  # the child's output
        assert "exit=2" in message

    def test_caller_picks_the_error_type(self):
        with pytest.raises(ServeError, match="worker bind address"):
            spawn(
                "repro.shard.worker", bind_host="", capture_stderr=True,
                error=ServeError,
            )


class TestResolveAuthkey:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_AUTHKEY", "from-env")
        assert resolve_authkey("from-flag") == b"from-flag"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_AUTHKEY", "from-env")
        assert resolve_authkey(None) == b"from-env"

    def test_default_when_neither(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_AUTHKEY", raising=False)
        assert resolve_authkey(None) == DEFAULT_AUTHKEY

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_AUTHKEY", "")
        assert resolve_authkey(None) == DEFAULT_AUTHKEY
