"""Chaos benchmark: the resilience subsystem under injected faults
(DESIGN.md §11).

Drives full SGLA+ runs through the ``process`` and ``remote`` shard
backends while a seeded :class:`repro.shard.FaultPlan` injects crash /
slow / corrupt / drop faults at a combined ~25% task rate, and gates on
the subsystem's core promise:

* **bit-identity** — ``w*`` and labels under chaos equal the fault-free
  run exactly, on both backends (failure handling is invisible in the
  output);
* **completion without degradation** — every fault is absorbed by
  retry / re-dispatch / respawn (``failures == 0``,
  ``degradations == 0``), and faults demonstrably fired
  (``retries >= 1``);
* **ladder degradation** — with every remote worker killed and respawn
  disabled (plus faults armed on the process rung), a dispatch walks
  ``remote -> process -> serial`` and still returns correct results;
* **CLI surfacing** (smoke mode) — ``--shard-backend remote`` completes
  through the CLI with labels identical to the process backend, and the
  ``shard:`` stats line reports the resilience counters.

Runs as a plain script (``--smoke`` for the CI leg, ``--json`` to echo
the machine-readable results always written under
``benchmarks/results/``).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table
from repro.core.laplacian import build_view_laplacians
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.shard import FaultPlan, ShardContext, ShardDegradation

FULL_N = 4_000
SMOKE_N = 800
SHARD_WORKERS = 2

#: combined 25% fault rate across every transport-visible kind.
CHAOS_PLAN = FaultPlan(
    seed=2,
    crash_rate=0.10,
    slow_rate=0.05,
    corrupt_rate=0.05,
    drop_rate=0.05,
    slow_seconds=0.01,
)


def bench_mvag(n: int, seed: int = 0):
    return generate_mvag(
        n_nodes=n,
        n_clusters=3,
        graph_view_strengths=[0.85],
        attribute_view_dims=[48, 32],
        attribute_view_signals=[0.8, 0.7],
        seed=seed,
    )


def _chaos_context(backend: str) -> ShardContext:
    return ShardContext(
        workers=SHARD_WORKERS,
        backend=backend,
        min_items=0,
        min_bytes=0,
        timeout=120.0,
        fault_plan=CHAOS_PLAN,
        quarantine_after=10,  # the gate demands zero degradations
    )


def bench_backend_chaos(mvag, reference, backend: str) -> dict:
    """One full SGLA+ run under chaos on ``backend``, gated on identity."""
    start = time.perf_counter()
    with _chaos_context(backend) as shard:
        chaos = cluster_mvag(
            mvag, method="sgla+", config=SGLAConfig(), shard=shard
        )
        stats = shard.stats
    seconds = time.perf_counter() - start
    return {
        "section": f"{backend}-chaos",
        "seconds": seconds,
        "bit_identical": bool(
            np.array_equal(
                chaos.integration.weights,
                reference.integration.weights,
            )
            and np.array_equal(chaos.labels, reference.labels)
        ),
        "completed_clean": stats.failures == 0 and stats.degradations == 0,
        "faults_fired": stats.retries >= 1,
        "retries": stats.retries,
        "redispatches": stats.redispatches,
        "workers_quarantined": stats.workers_quarantined,
        "stats_line": stats.summary(),
    }


def bench_dead_fleet_ladder(mvag) -> dict:
    """Kill every remote worker mid-run: the ladder must land on serial."""
    plain = build_view_laplacians(mvag, knn_k=10)
    start = time.perf_counter()
    with ShardContext(
        workers=SHARD_WORKERS,
        backend="remote",
        min_items=0,
        min_bytes=0,
        timeout=30.0,
        retries=0,
        remote_respawn=False,
        quarantine_cooldown=600.0,
    ) as shard:
        healthy = build_view_laplacians(mvag, knn_k=10, shard=shard)
        processes = shard.remote_fleet().processes
        for address in processes.addresses():
            processes.member(address).kill()
        # Arm faults on the process rung so the walk reaches serial:
        # items arrive there with one failed (remote) attempt behind
        # them, crash at attempt 1, and run clean at attempt 2.
        shard.director.fault_plan = FaultPlan(
            seed=0, crash_rate=1.0, max_faulted_attempts=2
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = build_view_laplacians(mvag, knn_k=10, shard=shard)
        rungs = [
            str(w.message).split("degrading to ")[1].split(" ")[0]
            for w in caught
            if w.category is ShardDegradation
        ]
        landed = shard.director.effective_backend("remote")
        stats = shard.stats
    seconds = time.perf_counter() - start
    identical = all(
        (ours != theirs).nnz == 0
        for ours, theirs in zip(healthy, plain)
    ) and all(
        (ours != theirs).nnz == 0
        for ours, theirs in zip(degraded, plain)
    )
    return {
        "section": "dead-fleet-ladder",
        "seconds": seconds,
        "bit_identical": identical,
        "completed_clean": stats.failures == 0,
        "landed_on_serial": landed == "serial",
        "degradation_path": rungs,
        "degradations": stats.degradations,
        "stats_line": stats.summary(),
    }


def bench_cli_chaos(n: int) -> dict:
    """Remote backend through the CLI vs process, with stats surfaced."""
    from repro.cli import main
    from repro.datasets.io import save_mvag

    mvag = bench_mvag(n, seed=1)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "chaos_bench.npz")
        save_mvag(mvag, path)
        for backend in ("process", "remote"):
            labels_path = str(Path(tmp) / f"labels_{backend}.npy")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main([
                    "cluster", path, "--method", "sgla+",
                    "--shard-workers", str(SHARD_WORKERS),
                    "--shard-backend", backend,
                    "--shard-retries", "2",
                    "--shard-deadline", "120",
                    "--out", labels_path,
                ])
            shard_line = next(
                (line for line in buffer.getvalue().splitlines()
                 if line.startswith("shard:")),
                "",
            )
            outputs[backend] = {
                "exit_code": code,
                "shard_line": shard_line,
                "labels": np.load(labels_path),
            }
    return {
        "exit_codes": [
            outputs["process"]["exit_code"], outputs["remote"]["exit_code"]
        ],
        "labels_identical": bool(np.array_equal(
            outputs["process"]["labels"], outputs["remote"]["labels"]
        )),
        "stats_surfaced": outputs["remote"]["shard_line"].startswith(
            "shard:"
        ),
        "remote_shard_line": outputs["remote"]["shard_line"],
    }


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    n = SMOKE_N if smoke else FULL_N
    host_cpus = os.cpu_count() or 1
    mvag = bench_mvag(n)

    with ShardContext(
        workers=SHARD_WORKERS, min_items=0, min_bytes=0
    ) as shard:
        reference = cluster_mvag(
            mvag, method="sgla+", config=SGLAConfig(), shard=shard
        )

    sections = [
        bench_backend_chaos(mvag, reference, "process"),
        bench_backend_chaos(mvag, reference, "remote"),
        bench_dead_fleet_ladder(mvag),
    ]
    cli = bench_cli_chaos(SMOKE_N) if smoke else None

    table = format_table(
        ["section", "seconds", "bit-identical", "clean", "detail"],
        [
            (
                row["section"],
                row["seconds"],
                "yes" if row["bit_identical"] else "NO",
                "yes" if row["completed_clean"] else "NO",
                row.get(
                    "degradation_path",
                    f"{row.get('retries', 0)} retries/"
                    f"{row.get('redispatches', 0)} redispatched",
                ),
            )
            for row in sections
        ],
        title=(
            f"Chaos gate: SGLA+ under {CHAOS_PLAN.describe()} "
            f"(n={n}, shard_workers={SHARD_WORKERS}, "
            f"host cores={host_cpus})"
        ),
    )
    text = table
    if cli is not None:
        text += (
            f"\n\nCLI remote vs process (--shard-backend): labels "
            f"{'identical' if cli['labels_identical'] else 'DIFFER'}\n"
            f"{cli['remote_shard_line']}"
        )

    name = "chaos" + ("_smoke" if smoke else "")
    emit(name, text, capsys)
    payload = {
        "mode": "smoke" if smoke else "full",
        "host": {"cpu_count": host_cpus},
        "config": {
            "n": n,
            "shard_workers": SHARD_WORKERS,
            "fault_plan": CHAOS_PLAN.describe(),
            "total_fault_rate": CHAOS_PLAN.total_rate,
        },
        "gates": {
            "bit_identity": True,
            "completion_without_degradation": True,
            "ladder_lands_on_serial": True,
        },
        "sections": sections,
    }
    if cli is not None:
        payload["cli_chaos"] = {
            key: value for key, value in cli.items() if key != "labels"
        }
    emit_json(name, payload, echo=echo_json)

    ok = True
    for row in sections:
        if not row["bit_identical"]:
            print(f"FAIL: {row['section']} output not bit-identical")
            ok = False
        if not row["completed_clean"]:
            print(f"FAIL: {row['section']} did not complete cleanly")
            ok = False
        if row["section"].endswith("-chaos") and not row["faults_fired"]:
            print(f"FAIL: {row['section']} injected no faults (dead gate)")
            ok = False
    ladder = sections[2]
    if not ladder["landed_on_serial"]:
        print("FAIL: dead-fleet dispatch did not degrade to serial")
        ok = False
    if cli is not None:
        if cli["exit_codes"] != [0, 0]:
            print("FAIL: CLI chaos run exited nonzero")
            ok = False
        if not cli["labels_identical"] or not cli["stats_surfaced"]:
            print("FAIL: CLI remote output differs or stats missing")
            ok = False
    return ok


def test_chaos(benchmark, capsys):
    assert benchmark.pedantic(
        run, args=(False, capsys), rounds=1, iterations=1
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
