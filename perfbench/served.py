"""The served workload: a closed loop through a spawned router in front of
one spawned daemon.

Each client thread sends its next request only after the previous reply,
so a slower stack receives less load.  Every block of 100 requests of a
client holds the same mix, in an order drawn from the client's own
seeded stream (so the share of each kind does not vary from run to run):

* ``miss`` — an objective request with fresh weights: one cold
  eigensolve on the daemon's cached Laplacians;
* ``hit`` — an exact repeat of weights this client already sent, which
  the daemon answers from its result cache;
* ``cluster`` — an SGLA+ cluster request with a fresh ``gamma`` (a
  parameter sweep), so each one misses the result cache and runs the
  whole pipeline on the cached MVAG.

Requests rotate over :data:`DATASETS` MVAGs of the profile, whose generator
seeds derive from the workload seed, so a run's latency does not hang on
one dataset's spectrum.

After the stack is stopped, every served objective value is compared
bitwise with a cold in-process ``SpectralObjective`` evaluation set up
the way the daemon sets up its own, and every cache hit with the cold
reply it repeats.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from library import input_seed
from metrics import Gate, median, tail


#: closed-loop client connections (= nproc on the reference host), so
#: one request is queued behind the one worker
CLIENTS = 2
#: distinct datasets (profile seeds) the requests spread over
DATASETS = 4


@dataclass(frozen=True)
class ServedWorkload:
    name: str
    profile: str
    #: cluster requests and exact repeats per block of 100 requests; the
    #: rest carry fresh weights
    clusters_per_100: int
    repeats_per_100: int
    #: lowest ARI a served cluster reply may score
    ari_floor: float
    #: router + daemon set-ups per run; the median is reported
    setups: int = 3


def _stop(*processes) -> None:
    """Graceful drain first, then make sure each process has exited."""
    for process in processes:
        process.terminate()
    for process in processes:
        process.wait(timeout=15)
        process.kill()  # no-op on an exited process; closes its pipes


def _health(address: str) -> dict:
    from repro.serve import ServeClient

    with ServeClient(address) as client:
        return client.health()


def _objective_job(profile: str, seed: int, weights) -> dict:
    return {"kind": "objective", "profile": profile, "seed": seed,
            "weights": np.asarray(weights, dtype=np.float64)}


def _drive(workload: ServedWorkload, address: str, seed: int, client: int,
           seeds: List[int], r: int, deadline: float, log: List[dict],
           lock: threading.Lock) -> None:
    from repro.serve import ServeClient
    from repro.utils.errors import ReproError

    rng = np.random.default_rng([seed, client])
    block = (["cluster"] * workload.clusters_per_100
             + ["hit"] * workload.repeats_per_100)
    block += ["miss"] * (100 - len(block))
    sent: List[dict] = []
    step = 0
    with ServeClient(address, tenant=f"client-{client}") as conn:
        while time.perf_counter() < deadline:
            if step % 100 == 0:
                order = rng.permutation(block)
            kind = str(order[step % 100])
            dataset = seeds[(client + step) % len(seeds)]
            step += 1
            if kind == "cluster":
                job = {"kind": "cluster", "profile": workload.profile,
                       "seed": dataset,
                       "config": {"gamma": float(rng.uniform(0.3, 0.7))}}
            elif kind == "hit" and sent:
                job = sent[rng.integers(len(sent))]
            else:
                kind = "miss"
                weights = rng.random(r) + 0.05
                job = _objective_job(
                    workload.profile, dataset, weights / weights.sum())
            started = time.perf_counter()
            try:
                reply, error = conn.submit(job), None
            except (ReproError, OSError) as exc:
                reply, error = None, f"{type(exc).__name__}: {exc}"
            entry = {"kind": kind, "job": job, "reply": reply,
                     "error": error,
                     "latency": time.perf_counter() - started}
            if kind == "miss" and reply is not None:
                sent.append(job)
            with lock:
                log.append(entry)


def run(workload: ServedWorkload, seed: int, seconds: float, trace: bool,
        import_s: float, gate: Gate) -> dict:
    """One run; ``trace`` changes nothing here, because the daemon's
    layers cannot be traced from the benchmark process."""
    from repro.datasets.profiles import load_profile_mvag
    from repro.serve import ServeClient
    from repro.serve.daemon import spawn_daemon
    from repro.serve.fleet import spawn_router

    seeds = [input_seed(seed, i) for i in range(DATASETS)]
    mvags = {s: load_profile_mvag(workload.profile, seed=s) for s in seeds}
    r = mvags[seeds[0]].n_views
    setups: List[float] = []
    log: List[dict] = []
    stack = ()
    try:
        for _ in range(workload.setups):
            _stop(*stack)
            stack = ()
            started = time.perf_counter()
            daemon = spawn_daemon(argv_extra=["--workers", "1"])
            stack = (daemon,)
            router = spawn_router([daemon.address])
            stack = (router, daemon)
            with ServeClient(router.address) as conn:
                for dataset in seeds:
                    conn.submit(_objective_job(
                        workload.profile, dataset, np.full(r, 1.0 / r)))
            setups.append(time.perf_counter() - started)
        daemon_before = _health(daemon.address)
        router_before = _health(router.address)
        lock = threading.Lock()
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=_drive,
                args=(workload, router.address, seed, client, seeds, r,
                      started + seconds, log, lock),
            )
            for client in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        daemon_after = _health(daemon.address)
        router_after = _health(router.address)
    finally:
        _stop(*stack)

    check(workload, mvags, log, gate)
    return summarize(log, wall, setups, import_s,
                     (daemon_before, daemon_after),
                     (router_before, router_after))


def reference_objective(profile_mvag, seed: int):
    """A cold in-process objective set up as the daemon sets up its own
    (``repro.serve.jobs.run_objective_group``)."""
    from repro.core.objective import SpectralObjective
    from repro.core.sgla import SGLAConfig, prepare_laplacians
    from repro.solvers import SolverContext

    config = SGLAConfig()
    laplacians, k = prepare_laplacians(profile_mvag, None, config)
    return SpectralObjective(
        laplacians, k=k, gamma=0.5, cache=False, seed=seed,
        fast_path=config.fast_path,
        solver=SolverContext(
            method=config.resolved_eigen_backend, seed=seed,
            warm_start=False,
        ),
    )


def check(workload: ServedWorkload, mvags: dict, log: List[dict],
          gate: Gate) -> None:
    """Bit-identity of every objective reply, sanity of every cluster
    reply; each failure is counted."""
    from repro.evaluation.clustering_metrics import adjusted_rand_index

    objectives = {s: reference_objective(m, s) for s, m in mvags.items()}
    cold: Dict[tuple, dict] = {}
    for entry in log:
        gate.attempt()
        reply = entry["reply"]
        if reply is None:
            gate.fail(f"{entry['kind']} request failed: {entry['error']}")
            continue
        result = reply["result"]
        dataset = entry["job"]["seed"]
        mvag = mvags[dataset]
        if entry["kind"] == "cluster":
            labels = np.asarray(result["labels"])
            weights = np.asarray(result["weights"])
            entry["ari"] = adjusted_rand_index(mvag.labels, labels)
            gate.check(
                labels.min() >= 0 and labels.max() < mvag.n_classes
                and bool(np.all(weights >= -1e-12))
                and abs(float(weights.sum()) - 1.0) <= 1e-9
                and entry["ari"] >= workload.ari_floor,
                f"cluster reply off: ari={entry['ari']:.3f}, w={weights}",
            )
            continue
        key = (dataset, entry["job"]["weights"].tobytes())
        if key not in cold:
            # the first reply for these weights must be a cold solve
            gate.check(not reply.get("cached"),
                       "first request for a weight vector was a cache hit")
            parts = objectives[dataset].components(entry["job"]["weights"])
            gate.check(
                result["value"] == parts.value
                and np.array_equal(result["eigenvalues"], parts.eigenvalues),
                f"served value {result['value']!r} != cold in-process "
                f"{parts.value!r}",
            )
            cold[key] = result
        else:
            first = cold[key]
            gate.check(
                result["value"] == first["value"]
                and np.array_equal(result["eigenvalues"],
                                   first["eigenvalues"]),
                "cached reply differs from its cold reply",
            )
            if entry["kind"] == "hit":
                gate.check(reply.get("cached") is True,
                           "repeat request was not answered from the cache")


def _delta(before: dict, after: dict, *path) -> float:
    for key in path[:-1]:
        before, after = before.get(key, {}), after.get(key, {})
    return float(after.get(path[-1], 0)) - float(before.get(path[-1], 0))


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def summarize(log: List[dict], wall: float, setups: List[float],
              import_s: float, daemon, router) -> dict:
    done = [e for e in log if e["reply"] is not None]
    latency = [e["latency"] for e in done] or [float("nan")]
    by_kind = {
        kind: [e["latency"] for e in done if e["kind"] == kind]
        for kind in ("hit", "miss", "cluster")
    }
    waits = [float(e["reply"].get("queue_wait", 0.0)) for e in done]
    clusters = [e for e in done if e["kind"] == "cluster"]
    q, tail_s, count = tail(latency)
    _, wait_tail, _ = tail(waits)
    p50_ms = median(latency) * 1e3
    dispatch_ms = float(router[1]["route_stats"]["dispatch_p50_ms"])
    e2e = {
        "run_s": (median(latency), "s"),
        "throughput_rps": (len(done) / wall, "1/s"),
        "setup_s": (import_s + median(setups), "s"),
        "peak_rss_mb": (float(daemon[1]["cache"]["peak_rss_mb"]), "MB"),
    }
    extra = {
        "latency_p50_ms": (p50_ms, "ms"),
        "latency_tail_ms": (tail_s * 1e3, f"ms@p{q:g}/n={count}"),
        "h_star": (median([float(e["reply"]["result"]["objective_value"])
                           for e in clusters]) if clusters else 0.0, ""),
        "ari": (median([e.get("ari", 0.0) for e in clusters])
                if clusters else 0.0, ""),
    }

    def p50_ms_of(samples):
        return median(samples) * 1e3 if samples else 0.0

    layers = {
        "serve.queue_wait_p50_ms": (p50_ms_of(waits), "ms"),
        "serve.queue_wait_tail_ms": (wait_tail * 1e3, "ms"),
        "serve.result_hit_ratio": (_ratio(
            _delta(*daemon, "results", "hits"),
            _delta(*daemon, "results", "misses")), "ratio"),
        "serve.dataset_hit_ratio": (_ratio(
            _delta(*daemon, "cache", "hits"),
            _delta(*daemon, "cache", "misses")), "ratio"),
        "serve.batched_frac": (
            sum(int(e["reply"].get("batched", 1)) > 1 for e in done)
            / max(len(done), 1), "ratio"),
        "serve.rejected": (sum(
            _delta(*daemon, "stats", "totals", name)
            for name in ("rejected_overload", "rejected_quota",
                         "rejected_draining")), "count"),
        "serve.hit_p50_ms": (p50_ms_of(by_kind["hit"]), "ms"),
        "serve.miss_p50_ms": (p50_ms_of(by_kind["miss"]), "ms"),
        "serve.cluster_p50_ms": (p50_ms_of(by_kind["cluster"]), "ms"),
        "route.dispatch_p50_ms": (dispatch_ms, "ms"),
        "route.overhead_p50_ms": (p50_ms - dispatch_ms, "ms"),
        "route.failovers": (
            _delta(*router, "route_stats", "failovers"), "count"),
        "route.hedges_launched": (
            _delta(*router, "route_stats", "hedges_launched"), "count"),
    }
    record = {
        "requests": len(log),
        "completed": len(done),
        "by_kind": {kind: len(v) for kind, v in by_kind.items()},
        "setup_samples_s": setups,
        "import_s": import_s,
        "window_s": wall,
    }
    return {"e2e": e2e, "extra": extra, "layers": layers, "record": record}
