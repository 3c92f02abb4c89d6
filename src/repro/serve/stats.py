"""Per-tenant serving statistics: outcomes and queue-wait percentiles.

Stored on the shared :class:`repro.obs.CounterTable` (DESIGN.md §16):
counters observable end to end, a one-line ``summary()`` for the CLI
``serve:`` line, kept per tenant so the isolation story is measurable —
the health endpoint shows exactly which tenant was shed, expired, or
served.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import CounterTable, Rows, percentile  # noqa: F401 (re-export)

#: queue-wait samples kept per tenant (bounded so a long-lived daemon's
#: stats memory is O(tenants), not O(requests)).
WAIT_SAMPLES = 4096

#: request priority classes, best-served first.  Defined here (the
#: lowest serve module) so queue scheduling, wire validation, and stats
#: all share one vocabulary without import cycles.
PRIORITIES = ("interactive", "normal", "batch")

_COUNTERS = (
    "requests", "admitted", "completed", "failed",
    "rejected_overload", "rejected_quota", "rejected_draining",
    "deadline_expired", "cancelled", "batched", "result_hits",
)

_WAITS = {"queue_wait_p50_ms": 0.0, "queue_wait_p99_ms": 0.0}

#: the shape of :meth:`ServeStats.snapshot` on the wire, for
#: :func:`repro.obs.fold_snapshots` (the router's fleet-wide view).
SNAPSHOT_SHAPE = {
    "totals": dict.fromkeys(_COUNTERS, 0) | _WAITS,
    "tenants": Rows(dict.fromkeys(_COUNTERS, 0) | _WAITS),
    "priorities": Rows({"served": 0} | _WAITS, PRIORITIES),
}


class ServeStats:
    """Thread-safe per-tenant statistics of one daemon.

    Counters and queue-wait windows live in a per-tenant
    :class:`~repro.obs.CounterTable`; a second table keyed by priority
    class holds the daemon-wide per-priority waits (the priority story
    is about *class* latency across tenants).
    """

    def __init__(self) -> None:
        self._tenants = CounterTable(_COUNTERS, WAIT_SAMPLES)
        self._priorities = CounterTable(("served",), WAIT_SAMPLES, PRIORITIES)

    def bump(self, tenant: str, counter: str, by: int = 1) -> None:
        self._tenants.bump(tenant, counter, by)

    def record_wait(
        self, tenant: str, seconds: float, priority: Optional[str] = None
    ) -> None:
        self._tenants.observe(tenant, seconds)
        if priority in PRIORITIES:
            self._priorities.observe(priority, seconds)
            self._priorities.bump(priority, "served")

    def total(self, counter: str) -> int:
        return self._tenants.snapshot()[1][counter]

    def snapshot(self) -> dict:
        """Totals + per-tenant + per-priority dicts."""
        tenants, totals = self._tenants.snapshot("queue_wait")
        priorities, _ = self._priorities.snapshot("queue_wait")
        return {
            "totals": totals, "tenants": tenants, "priorities": priorities
        }

    def summary(self) -> str:
        """The one-line ``serve:`` digest (CLI and shutdown log)."""
        return self.summary_from_snapshot(self.snapshot())

    @staticmethod
    def summary_from_snapshot(snap: dict) -> str:
        """Render the ``serve:`` line from a health-endpoint snapshot.

        The CLI talks to a *remote* daemon, so it renders from the wire
        payload rather than a live object; keeping the renderer next to
        :meth:`summary` keeps the two formats identical.
        """
        totals = snap["totals"]
        rejected = (
            totals["rejected_overload"]
            + totals["rejected_quota"]
            + totals["rejected_draining"]
        )
        return (
            f"{totals['requests']} requests "
            f"({len(snap['tenants'])} tenants), "
            f"{totals['completed']} completed, "
            f"{rejected} rejected, "
            f"{totals['deadline_expired']} deadline-expired, "
            f"{totals['batched']} batched, "
            f"{totals.get('result_hits', 0)} result-cache hits; "
            f"queue wait "
            f"p50 {totals['queue_wait_p50_ms']:.1f}ms / "
            f"p99 {totals['queue_wait_p99_ms']:.1f}ms"
        )
