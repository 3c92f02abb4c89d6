"""Golden CLI stats lines, pinned byte for byte.

Every one-line digest the CLI and the serving processes print
(``solver:``, ``neighbors:``, ``shard:``, ``coarsen:``, ``serve:``,
``route:``, the dataset-cache and result-cache summaries) is rendered
here from fixed counters and compared as a whole string, so a change to
how the counters are stored or merged cannot change what an operator
reads.
"""

from __future__ import annotations

from repro.coarsen.base import CoarsenStats
from repro.neighbors import NeighborStats
from repro.serve.jobs import cache_summary
from repro.serve.results import results_summary
from repro.serve.router import RouteStats
from repro.serve.stats import ServeStats
from repro.shard import ShardStats
from repro.solvers import SolverStats


class TestSolverLine:
    def test_full(self):
        stats = SolverStats(
            solves=7, saved=3, warm_solves=5, cold_solves=2,
            batched_solves=4, matvecs=1234, coarse_solves=2,
            tolerance_updates=1, by_backend={"lanczos": 5, "dense": 2},
        )
        assert stats.summary() == (
            "7 eigensolves (3 saved, 5 warm-started, 2 coarse, "
            "1234 matvecs; dense=2, lanczos=5)"
        )

    def test_empty(self):
        assert SolverStats().summary() == (
            "0 eigensolves (0 saved, 0 warm-started, 0 matvecs; none)"
        )


class TestNeighborLine:
    def test_with_recall(self):
        stats = NeighborStats(
            builds=3, nodes=300, candidate_pairs=29900,
            exhaustive_pairs=89700, recall_hits=45, recall_total=50,
            by_backend={"rp-forest": 2, "exact": 1},
        )
        assert stats.summary() == (
            "3 knn builds (exact=1, rp-forest=2; 33.3% of exhaustive "
            "pairs scored, recall~0.900)"
        )

    def test_empty(self):
        assert NeighborStats().summary() == (
            "0 knn builds (none; 0.0% of exhaustive pairs scored)"
        )


class TestShardLine:
    def test_with_resilience_counters(self):
        stats = ShardStats(
            dispatches=4, serial_dispatches=1, tasks=12, shards_used=6,
            segments=3, bytes_shared=3 * 1024 * 1024 + 52429, failures=2,
            retries=5, redispatches=7, degradations=1,
            workers_quarantined=2,
        )
        assert stats.summary() == (
            "4 sharded + 1 serial dispatches (12 tasks over 6 shards; "
            "3.1 MB shared in 3 segments, 2 failed, 5 retries/7 "
            "redispatched, 1 degraded, 2 quarantined)"
        )

    def test_quiet(self):
        assert ShardStats().summary() == (
            "0 sharded + 0 serial dispatches (0 tasks over 0 shards; "
            "0.0 MB shared in 0 segments)"
        )


class TestCoarsenLine:
    def test_ladder(self):
        stats = CoarsenStats(
            backend="heavy-edge", levels=[1200, 610, 320], coarse_solves=9,
            fine_solves=2, coarsen_seconds=0.01234, refine_evaluations=4,
        )
        assert stats.summary() == (
            "heavy-edge [1200 -> 610 -> 320] 9 coarse / 2 fine "
            "eigensolves, hierarchy 0.012s"
        )

    def test_flat(self):
        assert CoarsenStats().summary() == (
            " [flat] 0 coarse / 0 fine eigensolves, hierarchy 0.000s"
        )


def _serve_stats() -> ServeStats:
    stats = ServeStats()
    stats.bump("acme", "requests", 5)
    stats.bump("acme", "admitted", 4)
    stats.bump("acme", "completed", 3)
    stats.bump("acme", "batched", 2)
    stats.bump("acme", "result_hits", 1)
    stats.bump("zeta", "requests", 3)
    stats.bump("zeta", "rejected_overload")
    stats.bump("zeta", "rejected_quota", 2)
    stats.bump("zeta", "deadline_expired")
    for ms in (1.0, 2.0, 3.0, 40.0):
        stats.record_wait("acme", ms / 1e3, priority="interactive")
    stats.record_wait("zeta", 0.5, priority="batch")
    return stats


class TestServeLine:
    LINE = (
        "8 requests (2 tenants), 3 completed, 3 rejected, "
        "1 deadline-expired, 2 batched, 1 result-cache hits; "
        "queue wait p50 3.0ms / p99 500.0ms"
    )

    def test_live_and_remote_render_identically(self):
        stats = _serve_stats()
        assert stats.summary() == self.LINE
        assert ServeStats.summary_from_snapshot(stats.snapshot()) == self.LINE

    def test_empty(self):
        assert ServeStats().summary() == (
            "0 requests (0 tenants), 0 completed, 0 rejected, "
            "0 deadline-expired, 0 batched, 0 result-cache hits; "
            "queue wait p50 0.0ms / p99 0.0ms"
        )

    def test_snapshot_values(self):
        snap = _serve_stats().snapshot()
        assert snap["totals"]["rejected_quota"] == 2
        assert snap["tenants"]["acme"]["queue_wait_p50_ms"] == 3.0
        assert snap["tenants"]["zeta"]["queue_wait_p99_ms"] == 500.0
        assert snap["priorities"]["interactive"] == {
            "served": 4, "queue_wait_p50_ms": 3.0,
            "queue_wait_p99_ms": 40.0,
        }
        assert snap["priorities"]["normal"] == {
            "served": 0, "queue_wait_p50_ms": 0.0,
            "queue_wait_p99_ms": 0.0,
        }


class TestRouteLine:
    def test_counters_and_dispatch_percentiles(self):
        stats = RouteStats()
        stats.bump("requests", 9)
        stats.bump("completed", 7)
        stats.bump("failed", 2)
        stats.bump("failovers", 3)
        stats.bump("hedges_launched", 4)
        stats.bump("hedges_won", 1)
        stats.bump("breaker_opens", 2)
        stats.bump("breaker_closes", 1)
        stats.bump_daemon("10.0.0.1:7000", "routed", 5)
        stats.bump_daemon("10.0.0.2:7000", "completed", 2)
        for ms in range(1, 11):
            stats.observe_latency(ms / 1e3)
        assert stats.summary() == (
            "9 requests over 2 daemon(s), 7 completed, 2 failed, "
            "3 failovers, 4 hedged (1 won), breakers 2 opened / 1 closed; "
            "dispatch p50 5.0ms / p99 10.0ms"
        )
        snap = stats.snapshot()
        assert RouteStats.summary_from_snapshot(snap) == stats.summary()
        assert snap["daemons"]["10.0.0.1:7000"] == {
            "routed": 5, "completed": 0, "failed": 0, "cancelled_hedges": 0,
        }

    def test_empty(self):
        assert RouteStats().summary() == (
            "0 requests over 0 daemon(s), 0 completed, 0 failed, "
            "0 failovers, 0 hedged (0 won), breakers 0 opened / 0 closed; "
            "dispatch p50 0.0ms / p99 0.0ms"
        )


class TestCacheLines:
    def test_dataset_cache(self):
        snap = {
            "hits": 12, "misses": 3, "evictions": 1, "entries": 4,
            "building": 0, "bytes": 5 * 1048576, "max_bytes": 64 * 1048576,
            "peak_rss_mb": 210.5,
        }
        assert cache_summary(snap) == (
            "cache 12 hits / 3 misses / 1 evictions, 4 entries "
            "(5.0MB of 64.0MB)"
        )
        assert cache_summary({**snap, "max_bytes": None}) == (
            "cache 12 hits / 3 misses / 1 evictions, 4 entries (5.0MB)"
        )

    def test_result_cache(self):
        snap = {
            "enabled": True, "hits": 3, "misses": 1, "evictions": 0,
            "insertions": 1, "skipped_oversize": 0, "entries": 1,
            "bytes": 1048576, "max_bytes": 8 * 1048576,
        }
        assert results_summary(snap) == (
            "results 3 hits / 1 misses (75%) / 0 evictions, 1 entries "
            "(1.0MB of 8.0MB)"
        )
        assert results_summary({"enabled": False}) == "results off"
