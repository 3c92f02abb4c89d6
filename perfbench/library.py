"""Library workloads: one ``cluster_mvag`` / ``embed_mvag`` call per
operation, on inputs generated from the workload seed.

A run cycles over a fixed set of inputs (input ``i`` of seed ``s`` is
generated from ``SeedSequence([s, i])``), calling the pipeline once per
input per pass, until ``--seconds`` of calls are spent; every input gets
at least one call.  Only one input is held in memory at a time, so the
process's peak RSS is the pipeline's own working set on one input.

``run_s`` averages over the input set (the mean of each input's median
call time), because the integration's work depends on the input — SGLA's
evaluation count above all — and runs with different seeds must agree.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from metrics import Gate, median, peak_rss_mb
from spans import LAYERS, Tracer, traced


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    task: str  # "cluster" or "embed"
    method: str  # integration method passed to the pipeline
    profile: str  # dataset profile whose recipe generates the inputs
    n: int  # node count (overrides the profile's)
    inputs: int  # distinct inputs per run
    #: lowest ARI (cluster) or Micro-F1 (embed) one input may score, and
    #: highest h(w*) it may reach; both set below the workload's own
    #: measured range, so a quality regression fails the run
    quality_floor: float
    h_ceiling: float
    attribute_dim: Optional[int] = None  # overrides attribute view dims


@dataclass
class Outcome:
    seconds: float
    weights: np.ndarray
    h_star: float
    output: np.ndarray  # labels or embedding
    backend: str
    integration: object


def input_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_input(workload: LibraryWorkload, seed: int, index: int):
    """The ``index``-th input of ``seed``: the profile's generator recipe
    at the workload's node count (and attribute dimension)."""
    from repro.datasets.generator import generate_mvag
    from repro.datasets.profiles import dataset_profile

    profile = dataset_profile(workload.profile)
    attributes = profile.attribute_views
    if workload.attribute_dim is not None:
        attributes = tuple(
            dataclasses.replace(spec, dim=workload.attribute_dim)
            for spec in attributes
        )
    return generate_mvag(
        n_nodes=workload.n,
        n_clusters=profile.k,
        graph_view_strengths=profile.graph_views,
        attribute_view_dims=attributes,
        balance=profile.balance,
        seed=input_seed(seed, index),
        name=profile.name,
    )


def call(workload: LibraryWorkload, mvag) -> Outcome:
    import repro

    started = time.perf_counter()
    if workload.task == "cluster":
        out = repro.cluster_mvag(mvag, method=workload.method)
        output, backend = out.labels, "labels"
    else:
        out = repro.embed_mvag(mvag, method=workload.method, dim=64)
        output, backend = out.embedding, out.backend
    seconds = time.perf_counter() - started
    return Outcome(
        seconds, np.asarray(out.integration.weights),
        float(out.integration.objective_value), np.asarray(output),
        backend, out.integration,
    )


def quality(workload: LibraryWorkload, mvag,
            outcome: Outcome) -> Dict[str, float]:
    """Task quality against the generator's ground truth."""
    from repro.datasets.profiles import dataset_profile
    from repro.evaluation.classification import evaluate_embedding
    from repro.evaluation.clustering_metrics import adjusted_rand_index

    if workload.task == "cluster":
        return {
            "ari": adjusted_rand_index(mvag.labels, outcome.output),
            "clusters": float(np.unique(outcome.output).size),
        }
    report = evaluate_embedding(
        outcome.output, mvag.labels,
        train_fraction=dataset_profile(workload.profile).train_fraction,
        seed=0,
    )
    return {"micro_f1": report["micro_f1"]}


def check(workload: LibraryWorkload, mvag, outcome: Outcome,
          scores: Dict[str, float], gate: Gate) -> None:
    """Correctness of one call; every failure is counted in ``gate``."""
    w = outcome.weights
    gate.check(
        w.shape == (mvag.n_views,) and bool(np.all(w >= -1e-12))
        and abs(float(w.sum()) - 1.0) <= 1e-9,
        f"w* off the simplex: {w}",
    )
    gate.check(
        np.isfinite(outcome.h_star)
        and 0.0 <= outcome.h_star <= workload.h_ceiling,
        f"h(w*)={outcome.h_star} outside [0, {workload.h_ceiling}]",
    )
    if workload.task == "cluster":
        # Yu-Shi discretization may leave a cluster empty (k-1 clusters at
        # high ARI is a quality outcome, caught by the floor if it is
        # poor), so the check is on the label ids, not on their count.
        labels = outcome.output
        gate.check(
            labels.shape == (mvag.n_nodes,)
            and labels.min() >= 0 and labels.max() < mvag.n_classes,
            f"labels are not ids of k={mvag.n_classes} clusters",
        )
    else:
        gate.check(
            outcome.output.shape == (mvag.n_nodes, 64)
            and bool(np.all(np.isfinite(outcome.output))),
            f"embedding has shape {outcome.output.shape} or non-finite "
            "entries",
        )
    for name in ("ari", "micro_f1"):
        value = scores.get(name, workload.quality_floor)
        gate.check(
            value >= workload.quality_floor,
            f"{name}={value:.3f} below the floor {workload.quality_floor}",
        )


def same(a: Outcome, b: Outcome) -> bool:
    """Bitwise equality of two calls' results on one input."""
    return (
        np.array_equal(a.weights, b.weights) and a.h_star == b.h_star
        and np.array_equal(a.output, b.output) and a.backend == b.backend
    )


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #


def run(workload: LibraryWorkload, seed: int, seconds: float, trace: bool,
        import_s: float, gate: Gate) -> dict:
    setups: List[float] = []
    plain: Dict[int, List[float]] = {}
    traced_s: Dict[int, List[float]] = {}
    first: Dict[int, Outcome] = {}
    scores: Dict[int, Dict[str, float]] = {}
    tracer = Tracer()
    roots = []
    traced_outcomes: List[Outcome] = []

    def one_call(index: int, mvag, with_trace: bool) -> Outcome:
        gate.attempt()
        if with_trace:
            with traced(tracer):
                with tracer.span("run"):
                    outcome = call(workload, mvag)
            roots.append(tracer.spans[-1])
            traced_outcomes.append(outcome)
            traced_s.setdefault(index, []).append(outcome.seconds)
        else:
            outcome = call(workload, mvag)
            plain.setdefault(index, []).append(outcome.seconds)
        if index not in first:
            first[index] = outcome
            scores[index] = quality(workload, mvag, outcome)
            check(workload, mvag, outcome, scores[index], gate)
        else:
            gate.check(
                same(first[index], outcome),
                f"input {index}: a repeated call returned different results",
            )
        return outcome

    started = time.perf_counter()

    def next_call_fits() -> bool:
        calls = [s for v in plain.values() for s in v]
        spent = time.perf_counter() - started
        return spent + sum(calls) / len(calls) <= seconds

    # Every input once; a plain run then cycles while calls still fit.
    step = 0
    while step < workload.inputs or (not trace and next_call_fits()):
        index = step % workload.inputs
        t0 = time.perf_counter()
        mvag = make_input(workload, seed, index)
        setups.append(time.perf_counter() - t0)
        if trace:
            # One plain and one traced call per input, alternating which
            # goes first so neither always meets a cold cache.
            for with_trace in ((False, True) if index % 2 else (True, False)):
                one_call(index, mvag, with_trace)
        else:
            one_call(index, mvag, False)
        del mvag
        step += 1

    per_input = [median(v) for _, v in sorted(plain.items())]
    run_s = sum(per_input) / len(per_input)
    all_calls = [s for v in plain.values() for s in v]
    ari = [s["ari"] for s in scores.values() if "ari" in s]
    f1 = [s["micro_f1"] for s in scores.values() if "micro_f1" in s]
    e2e = {
        "run_s": (run_s, "s"),
        # one caller: its call rate at the mean call time, weighting every
        # input alike (a plain calls-per-second would weight the inputs a
        # second pass happened to reach)
        "throughput_rps": (1.0 / run_s, "1/s"),
        "setup_s": (import_s + median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"h_star": (median([o.h_star for o in first.values()]), "")}
    if ari:
        extra["ari"] = (median(ari), "")
    if f1:
        extra["micro_f1"] = (median(f1), "")
    record = {
        "inputs": workload.inputs,
        "calls": len(all_calls),
        "call_s": {str(i): v for i, v in sorted(plain.items())},
        "setup_samples_s": setups,
        "import_s": import_s,
        "scores": {str(i): v for i, v in sorted(scores.items())},
        "h_star": {str(i): o.h_star for i, o in sorted(first.items())},
    }
    layers = {}
    if trace:
        # one plain and one traced call per input, so the totals pair up
        overhead = (
            sum(s for v in traced_s.values() for s in v) / sum(all_calls)
            - 1.0
        )
        layers = layer_metrics(tracer, roots, traced_outcomes, overhead)
        record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return {"e2e": e2e, "extra": extra, "layers": layers, "record": record}


def layer_metrics(tracer: Tracer, roots, outcomes: List[Outcome],
                  overhead: float) -> Dict[str, tuple]:
    """Per-call means of every layer figure over the traced calls."""
    n = len(roots)
    self_s = {name: 0.0 for name in LAYERS}
    counts: Dict[str, float] = {}
    optim_counts: Dict[str, float] = {}
    unattributed = 0.0
    run_s = 0.0
    embed_eigen = cluster_eigen = 0.0
    for root in roots:
        ledger = tracer.ledger(root)
        for name, value in ledger["self"].items():
            self_s[name] += value / n
        unattributed += ledger["unattributed_s"]
        run_s += root.end - root.start
        for key, value in tracer.counts(root).items():
            counts[key] = counts.get(key, 0.0) + value / n
        for key, value in tracer.counts(root, within="optim").items():
            optim_counts[key] = optim_counts.get(key, 0.0) + value / n
        embed_eigen += tracer.time_within(root, "eigen", "embed") / n
        cluster_eigen += tracer.time_within(root, "eigen", "cluster") / n

    neighbor = [o.integration.neighbor_stats for o in outcomes]
    solver = [o.integration.solver_stats for o in outcomes]
    pairs = sum(s.candidate_pairs for s in neighbor if s is not None)
    exhaustive = sum(s.exhaustive_pairs for s in neighbor if s is not None)
    hits = sum(s.recall_hits for s in neighbor if s is not None)
    sampled = sum(s.recall_total for s in neighbor if s is not None)
    saved = sum(s.saved for s in solver if s is not None)
    solved = sum(s.solves for s in solver if s is not None)
    solves = counts.get("eigen.solves", 0.0)
    return {
        "knn.self_s": (self_s["knn"], "s"),
        "knn.calls": (counts.get("knn.calls", 0.0), "count"),
        "knn.candidate_pairs": (pairs / n, "count"),
        "knn.candidate_fraction": (
            pairs / exhaustive if exhaustive else 0.0, "ratio"),
        # exact search finds every true neighbour; sampled otherwise
        "knn.recall": (hits / sampled if sampled else 1.0, "ratio"),
        "eigen.self_s": (self_s["eigen"], "s"),
        "eigen.solves": (solves, "count"),
        "eigen.matvecs": (counts.get("eigen.matvecs", 0.0), "count"),
        "eigen.matvecs_per_solve": (
            counts.get("eigen.matvecs", 0.0) / solves if solves else 0.0,
            "count"),
        "eigen.warm_frac": (
            counts.get("eigen.warm", 0.0) / solves if solves else 0.0,
            "ratio"),
        "eigen.coarse_solves": (counts.get("eigen.coarse", 0.0), "count"),
        "objective.self_s": (self_s["objective"], "s"),
        "objective.evaluations": (
            counts.get("objective.evaluations", 0.0), "count"),
        "objective.saved_frac": (
            saved / (saved + solved) if saved + solved else 0.0, "ratio"),
        "optim.self_s": (self_s["optim"], "s"),
        "optim.evaluations": (
            optim_counts.get("objective.evaluations", 0.0), "count"),
        "embed.self_s": (self_s["embed"], "s"),
        "embed.eigen_s": (embed_eigen, "s"),
        "embed.netmf_calls": (
            sum(o.backend == "netmf" for o in outcomes) / n, "count"),
        "embed.sketchne_calls": (
            sum(o.backend == "sketchne" for o in outcomes) / n, "count"),
        "laplacian.self_s": (self_s["laplacian"], "s"),
        "stack.self_s": (self_s["stack"], "s"),
        "aggregate.self_s": (self_s["aggregate"], "s"),
        "surrogate.self_s": (self_s["surrogate"], "s"),
        "cluster.self_s": (self_s["cluster"], "s"),
        "cluster.eigen_s": (cluster_eigen, "s"),
        "traced_run_s": (run_s / n, "s"),
        "unattributed_frac": (unattributed / run_s, "ratio"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
