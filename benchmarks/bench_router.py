"""Routing front-tier benchmark: chaos failover and membership churn.

Two legs against the consistent-hash router (DESIGN.md §14):

* **chaos** — three spawned daemons behind a :class:`Router`; drivers
  submit objective jobs across many ring keys while one daemon is
  SIGKILLed mid-traffic.  The gate: every admitted request completes,
  every completed result is **bit-identical** to a single-daemon
  baseline run (failover changes *where* a job runs, never *what* it
  returns), at least one transparent failover actually happened, and
  no failure was swallowed silently — the ``RouteStats`` counters
  account for every detour;
* **churn** — pure ring arithmetic over sampled keys: removing one of
  N nodes must remap at most ``1.5/N`` of keys (so ``1 - 1.5/N`` of
  dataset-cache locality survives membership change), survivors keep
  every key they already owned, and with replication 2 any single
  failure leaves every key a live replica.

Runs as a plain script (``--smoke`` for the CI leg, ``--json`` to echo
the machine-readable results always written under
``benchmarks/results/``).
"""

from __future__ import annotations

import sys
import threading
import time
from functools import partial
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table
from repro.datasets.profiles import load_profile_mvag
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.ring import HashRing, remap_fraction, route_key
from repro.serve.daemon import spawn_daemon
from repro.serve.router import Router, RouterConfig
from repro.utils.proc import Fleet

PROFILE = "rm_small"
REMAP_CEILING_FACTOR = 1.5  # remap <= 1.5/N of keys on one removal


def _views(profile: str) -> int:
    return load_profile_mvag(profile, seed=0).n_views


def _weights(r: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random(r) + 0.05
    return raw / raw.sum()


def _job(profile: str, r: int, seed: int) -> dict:
    return {
        "kind": "objective", "profile": profile, "seed": seed,
        "weights": _weights(r, seed),
    }


# --------------------------------------------------------------------- #
# Legs
# --------------------------------------------------------------------- #


def leg_chaos(profile: str, n_seeds: int, drivers: int) -> dict:
    r = _views(profile)
    seeds = list(range(n_seeds))

    # Baseline: one daemon serves every job — the identity reference.
    baseline = {}
    with ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=2)) as solo:
        with ServeClient(solo.address) as client:
            for seed in seeds:
                baseline[seed] = client.submit(_job(profile, r, seed))[
                    "result"
                ]

    results: dict = {}
    errors: list = []
    lock = threading.Lock()
    daemons = partial(spawn_daemon, argv_extra=["--workers", "1"])
    with Fleet(daemons, 3) as fleet:
        addrs = fleet.addresses()
        config = RouterConfig(
            daemons=tuple(addrs), replication=2, health_interval=0.2,
            breaker_failures=2, breaker_cooldown=1.0,
        )
        with Router(config) as router:
            # The victim is the primary of the first seed's key, so its
            # keys are guaranteed to need a detour after the kill.
            ring = HashRing(addrs, vnodes=config.vnodes)
            victim = ring.lookup(route_key(_job(profile, r, 0)))[0]
            victim_keys = sum(
                1 for seed in seeds
                if ring.lookup(route_key(_job(profile, r, seed)))[0]
                == victim
            )

            def submit_one(tag, seed: int) -> None:
                try:
                    reply = router.submit(_job(profile, r, seed))
                    with lock:
                        results[(tag, seed)] = reply
                except Exception as error:  # silent = gate failure
                    with lock:
                        errors.append(
                            (seed, type(error).__name__, str(error))
                        )

            def drive(driver_index: int) -> None:
                for round_index in range(3):
                    for seed in seeds:
                        submit_one((driver_index, round_index), seed)

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(drivers)
            ]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # traffic in flight
            fleet.member(victim).kill()  # SIGKILL, mid-stream
            for thread in threads:
                thread.join(timeout=300)
            # Deterministic tail: the victim's own keys, post-mortem —
            # these MUST detour (failover or health skip), so a run in
            # which the drivers happened to finish early still
            # exercises and counts the failover path.
            for seed in seeds:
                key = route_key(_job(profile, r, seed))
                if ring.lookup(key)[0] == victim:
                    submit_one("post-kill", seed)
            wall = time.monotonic() - started
            snap = router.stats.snapshot()

    identical = bool(results) and all(
        reply["result"]["value"] == baseline[seed]["value"]
        and np.array_equal(
            reply["result"]["eigenvalues"], baseline[seed]["eigenvalues"]
        )
        for (_, seed), reply in results.items()
    )
    admitted = drivers * 3 * len(seeds) + victim_keys
    detours = snap["failovers"] + snap["skipped_unhealthy"]
    return {
        "leg": "chaos",
        "daemons": 3,
        "victim_primary_keys": victim_keys,
        "admitted": admitted,
        "completed": len(results),
        "errors": len(errors),
        "error_sample": errors[:3],
        "failovers": snap["failovers"],
        "skipped_unhealthy": snap["skipped_unhealthy"],
        "breaker_opens": snap["breaker_opens"],
        "qps": admitted / wall,
        "bit_identical": identical,
        "ok": (
            not errors
            and len(results) == admitted
            and identical
            and detours >= 1
        ),
    }


def leg_churn(node_counts, sample: int) -> dict:
    keys = [f"profile_{i}@{i % 13}" for i in range(sample)]
    rows = []
    ok = True
    for n in node_counts:
        nodes = [f"10.0.0.{i}:7000" for i in range(1, n + 1)]
        before = HashRing(nodes)
        after = HashRing(nodes[:-1])
        frac = remap_fraction(before, after, keys)
        ceiling = REMAP_CEILING_FACTOR / n
        # Survivors keep their keys — the cache-warmth property.
        sticky = all(
            after.lookup(key)[0] == before.lookup(key)[0]
            for key in keys[:500]
            if before.lookup(key)[0] != nodes[-1]
        )
        # Replication 2: any single dead node leaves a live replica.
        survivable = all(
            any(node != dead for node in before.lookup(key, 2))
            for dead in nodes
            for key in keys[:200]
        )
        row_ok = frac <= ceiling and frac > 0 and sticky and survivable
        ok = ok and row_ok
        rows.append({
            "nodes": n,
            "remap_fraction": frac,
            "remap_ceiling": ceiling,
            "cache_locality": 1.0 - frac,
            "survivors_sticky": sticky,
            "single_failure_survivable": survivable,
            "ok": row_ok,
        })
    return {
        "leg": "churn",
        "sampled_keys": sample,
        "rows": rows,
        "ok": ok,
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    legs = [
        leg_chaos(
            PROFILE,
            n_seeds=6 if smoke else 12,
            drivers=2 if smoke else 4,
        ),
        leg_churn((3, 4, 5), sample=1000 if smoke else 4000),
    ]

    rows = []
    for leg in legs:
        detail = ", ".join(
            f"{key}={_fmt(value)}" for key, value in leg.items()
            if key not in ("leg", "ok", "rows", "error_sample")
        )
        if leg["leg"] == "churn":
            detail += "; " + "; ".join(
                f"N={row['nodes']}: remap={row['remap_fraction']:.3f}"
                f"<={row['remap_ceiling']:.3f}"
                for row in leg["rows"]
            )
        rows.append([leg["leg"], "PASS" if leg["ok"] else "FAIL", detail])
    text = format_table(
        ["leg", "gate", "detail"], rows,
        title=(
            f"Routing front tier ({PROFILE}, "
            f"mode={'smoke' if smoke else 'full'})"
        ),
    )
    name = "router" + ("_smoke" if smoke else "")
    emit(name, text, capsys)
    payload = {
        "mode": "smoke" if smoke else "full",
        "profile": PROFILE,
        "gates": {
            "remap_ceiling_factor": REMAP_CEILING_FACTOR,
            "chaos_bit_identity": True,
        },
        "legs": legs,
    }
    emit_json(name, payload, echo=echo_json)

    ok = True
    for leg in legs:
        if not leg["ok"]:
            print(f"FAIL: router leg {leg['leg']} gate not met: {leg}")
            ok = False
    return ok


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def test_router(benchmark, capsys):
    assert benchmark.pedantic(
        run, args=(True, capsys), rounds=1, iterations=1
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
