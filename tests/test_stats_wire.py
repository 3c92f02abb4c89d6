"""The health/stats wire shape, pinned key by key.

``ServeDaemon.health_snapshot()`` and ``Router.health_snapshot()`` are
what older peers, ``repro.cli serve-stats`` and the repo benchmark parse
(the benchmark reads ``route_stats.dispatch_p50_ms``/``failovers``/
``hedges_launched``, ``stats.totals.rejected_*``, the ``results`` and
``cache`` hit/miss counters and ``cache.peak_rss_mb``).  The key sets
below are literal, so renaming, dropping or adding a wire key is a
deliberate edit here rather than a silent protocol change.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import Router, RouterConfig, ServeConfig, ServeDaemon

STAT_COUNTERS = {
    "requests", "admitted", "completed", "failed",
    "rejected_overload", "rejected_quota", "rejected_draining",
    "deadline_expired", "cancelled", "batched", "result_hits",
}
WAIT_PERCENTILES = {"queue_wait_p50_ms", "queue_wait_p99_ms"}
TENANT_ROW = STAT_COUNTERS | WAIT_PERCENTILES
PRIORITY_ROW = {"served"} | WAIT_PERCENTILES
RESULTS = {
    "enabled", "hits", "misses", "evictions", "insertions",
    "skipped_oversize", "entries", "bytes", "max_bytes",
}
CACHE = {
    "hits", "misses", "evictions", "entries", "building", "bytes",
    "max_bytes", "peak_rss_mb",
}
SHARD = {
    "contexts", "degradation_rung", "effective_backends",
    "quarantined_workers", "degradations", "workers_quarantined",
}
DAEMON_HEALTH = {
    "ok", "address", "draining", "queue_depth", "running",
    "inflight_bytes", "queue_capacity", "shard", "cache", "results",
    "stats",
}
ROUTE_COUNTERS = {
    "requests", "completed", "failed", "failovers", "hedges_launched",
    "hedges_won", "hedges_cancelled", "breaker_opens", "breaker_probes",
    "breaker_closes", "breaker_rejections", "skipped_unhealthy",
    "no_replica",
}
ROUTE_STATS = ROUTE_COUNTERS | {"daemons", "dispatch_p50_ms", "dispatch_p99_ms"}
ROUTE_DAEMON_ROW = {"routed", "completed", "failed", "cancelled_hedges"}
ROUTER_HEALTH = {
    "ok", "router", "draining", "ring", "daemons", "route_stats", "stats",
    "results",
}
ROUTER_DAEMON_ENTRY = {
    "alive", "draining", "queue_depth", "queue_capacity", "breaker",
    "error", "degradation_rung",
}

JOB = {
    "kind": "objective", "profile": "rm_small", "k": 2,
    "weights": np.full(11, 1.0 / 11),
}


def _check_stats_section(stats: dict) -> None:
    assert set(stats) == {"totals", "tenants", "priorities"}
    assert set(stats["totals"]) == TENANT_ROW
    assert stats["tenants"], "a served request must leave a tenant row"
    for row in stats["tenants"].values():
        assert set(row) == TENANT_ROW
        assert all(type(row[name]) is int for name in STAT_COUNTERS)
        assert all(type(row[name]) is float for name in WAIT_PERCENTILES)
    assert list(stats["priorities"]) == ["interactive", "normal", "batch"]
    for row in stats["priorities"].values():
        assert set(row) == PRIORITY_ROW
        assert type(row["served"]) is int


@pytest.fixture()
def daemon():
    with ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=1)) as live:
        yield live


def test_daemon_health_shape(daemon):
    config = RouterConfig(daemons=(daemon.address,), replication=1)
    with Router(config) as router:
        router.submit(dict(JOB), tenant="acme", priority="interactive")
    health = daemon.health_snapshot()
    assert set(health) == DAEMON_HEALTH
    assert set(health["shard"]) == SHARD
    assert set(health["cache"]) == CACHE
    assert set(health["results"]) == RESULTS
    _check_stats_section(health["stats"])
    assert health["stats"]["tenants"]["acme"]["completed"] == 1
    assert health["stats"]["priorities"]["interactive"]["served"] == 1


def test_router_health_shape(daemon):
    config = RouterConfig(
        daemons=(daemon.address,), replication=1, health_interval=0.05,
    )
    with Router(config) as router:
        router.submit(dict(JOB), tenant="acme")
        limit = time.monotonic() + 10.0
        while time.monotonic() < limit:
            health = router.health_snapshot()
            if health["stats"]["totals"]["completed"] >= 1:
                break
            time.sleep(0.02)
    assert set(health) == ROUTER_HEALTH
    assert set(health["route_stats"]) == ROUTE_STATS
    assert all(
        type(health["route_stats"][name]) is int for name in ROUTE_COUNTERS
    )
    assert type(health["route_stats"]["dispatch_p50_ms"]) is float
    for row in health["route_stats"]["daemons"].values():
        assert set(row) == ROUTE_DAEMON_ROW
    assert set(health["results"]) == RESULTS
    for entry in health["daemons"].values():
        assert set(entry) == ROUTER_DAEMON_ENTRY
    _check_stats_section(health["stats"])
    assert health["stats"]["totals"]["completed"] >= 1
