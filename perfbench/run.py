"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload knn_bound --seed 0 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` also wraps every layer entry point (see ``spans.py``) and
reports the per-layer ledger instead.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric by name and unit, the provenance
stamp and any correctness failure.  A full record (and, traced, every
span) is written to ``perfbench/out/``.  The command exits 1 when a
correctness check fails and 2 when the library cannot be found.

Workloads and the metric -> layer -> workload table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import time

#: ``setup_s`` counts from here, so it includes the imports of numpy
#: (first imported by ``library``), scipy and ``repro``.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import library  # noqa: E402
import served  # noqa: E402
from metrics import Gate, provenance  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

WORKLOADS = {
    w.name: w for w in (
        # mag_eng's shape (2 graph + 2 attribute views, k=20) at a size
        # where the exact cosine kNN GEMM still takes ~60% of a call.
        # Measured over 102 inputs: ARI 0.87-1.00, h(w*) 0.28-0.45.
        library.LibraryWorkload(
            name="knn_bound", task="cluster", method="sgla+",
            profile="mag_eng", n=6000, attribute_dim=2000, inputs=3,
            quality_floor=0.8, h_ceiling=0.6,
        ),
        # mag_eng_small (2 graph + 2 attribute views, k=12, Lanczos path)
        # under SGLA (Algorithm 1): eigensolves take ~90% of a call.
        # Measured over 624 inputs: ARI 0.33-1.00 (bimodal), h(w*)
        # 0.52-0.67.
        library.LibraryWorkload(
            name="eigen_bound", task="cluster", method="sgla",
            profile="mag_eng_small", n=1200, inputs=20,
            quality_floor=0.2, h_ceiling=0.8,
        ),
        # dblp's shape under SGLA+ then NetMF (dim 64, auto backend).
        # Measured over 156 inputs: Micro-F1 0.996-1.000, h(w*) 0.35-0.60.
        library.LibraryWorkload(
            name="embed_bound", task="embed", method="sgla+",
            profile="dblp", n=2000, inputs=5,
            quality_floor=0.9, h_ceiling=0.75,
        ),
        # The median ARI of a run's SGLA+ cluster replies was 0.54-0.99
        # over 36 runs.
        served.ServedWorkload(
            name="served_mix", profile="mag_eng_small",
            clusters_per_100=3, repeats_per_100=23, ari_floor=0.2,
        ),
    )
}


def _import_library(started: float) -> float:
    """Put the checkout's ``src`` first on the path and import the
    package; seconds since ``started``.  Exits 2 when there is no library
    here."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from the "
              "repository root", file=sys.stderr)
        sys.exit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro  # noqa: F401

    return time.perf_counter() - started


def _declared(trace: bool) -> list:
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None, workloads=WORKLOADS, started=STARTED) -> int:
    """One run; ``started`` is when set-up began (a caller that has
    already imported everything passes the time of its call)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library(started)
    workload = workloads[args.workload]
    if isinstance(workload, library.LibraryWorkload):
        module = library
    else:
        module = served
    gate = Gate()
    result = module.run(workload, args.seed, args.seconds, bool(args.trace),
                        import_s, gate)

    declared = _declared(bool(args.trace))
    if args.trace:
        # A layer a workload does not exercise reads 0 (the daemon's
        # layers are not visible from the benchmark process).
        source = {entry["name"]: (0.0, "") for entry in declared}
        source.update(result["layers"])
    else:
        source = result["e2e"]
    metrics = {
        entry["name"]: {"value": source[entry["name"]][0],
                        "unit": entry["unit"]}
        for entry in declared
    }

    stamp = provenance(ROOT, args.workload, args.seed)
    shown = dict(result["e2e"])
    shown.update(result["extra"])
    shown["error_rate"] = (gate.failed / max(gate.attempted, 1), "")
    for name, (value, unit) in shown.items():
        print(f"{args.workload}  {name:<16} {value:>14.6g} {unit}")
    for name, (value, unit) in result["layers"].items():
        print(f"{args.workload}  {name:<26} {value:>14.6g} {unit}")
    for reason in gate.reasons:
        print(f"FAILED: {reason}")
    print("provenance: " + json.dumps(stamp, sort_keys=True))

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    def labelled(figures: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}

    with open(path, "w") as handle:
        json.dump({
            "provenance": stamp,
            "metrics": labelled(shown),
            "layers": labelled(result["layers"]),
            "failures": gate.reasons,
            "record": result["record"],
        }, handle, indent=1, default=float)

    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
