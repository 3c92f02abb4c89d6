"""Self-test of the benchmark, at toy size.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload shape runs on a toy profile (``rm`` for the two cluster
shapes, ``yelp_small`` for the embedding shape, ``rm_small`` behind the
served stack) through the same ``run.main`` the benchmark command uses,
and the test checks that:

* every metric ``BENCHMARK.json`` declares is emitted with its unit, with
  tracing off and on, and nothing else is; every per-layer metric is
  measured by at least one workload;
* the traced layers cover the traced wall time: ``unattributed_frac`` is
  at most :data:`spans.ATTRIBUTION_BOUND`;
* the correctness gate fails loudly — exit code 1, a ``FAILED`` line and
  ``"correct": false`` — on a corrupted served reply and on a corrupted
  library result;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from library import LibraryWorkload  # noqa: E402
from served import ServedWorkload  # noqa: E402
from spans import ATTRIBUTION_BOUND  # noqa: E402

OUT = os.path.join(HERE, "out")

# Named apart from the real workloads so their records in perfbench/out/
# do not overwrite the real ones.
TOY = {
    w.name: w for w in (
        # floors and ceilings below the toys' own seed-0 scores (ARI 0.36 /
        # 0.79, Micro-F1 0.88; h(w*) 0.28 / 0.25 / 0.58 at most)
        LibraryWorkload(name="toy-knn_bound", task="cluster",
                        method="sgla+", profile="rm", n=91, inputs=2,
                        quality_floor=0.3, h_ceiling=0.35),
        LibraryWorkload(name="toy-eigen_bound", task="cluster",
                        method="sgla", profile="rm", n=91, inputs=2,
                        quality_floor=0.7, h_ceiling=0.35),
        LibraryWorkload(name="toy-embed_bound", task="embed",
                        method="sgla+", profile="yelp_small", n=400,
                        inputs=2, quality_floor=0.8, h_ceiling=0.7),
        # rm_small's cluster replies reach ARI 0.01 at some gamma
        ServedWorkload(name="toy-served_mix", profile="rm_small",
                       clusters_per_100=10, repeats_per_100=30,
                       ari_floor=0.0, setups=1),
    )
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def invoke(workload: str, trace: int):
    """``(exit code, stdout lines, final JSON)`` of one toy run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "0", "--seconds", "1",
             "--trace", str(trace)],
            workloads=TOY, started=time.perf_counter(),
        )
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def check_metrics(spec: dict) -> None:
    measured = set()
    for workload in TOY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = invoke(workload, trace)
            expect(code == 0 and result["correct"],
                   f"{workload} trace={trace}: correct, exit 0")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {
                name: m["unit"] for name, m in result["metrics"].items()
            }
            expect(emitted == declared,
                   f"{workload} trace={trace}: emits exactly the declared "
                   "metrics with their units")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{workload} trace={trace}: every value is a number")
            if trace:
                record = os.path.join(OUT, f"{workload}-seed0-trace1.json")
                with open(record) as handle:
                    measured |= set(json.load(handle)["layers"])
            if trace and workload != "toy-served_mix":
                share = result["metrics"]["unattributed_frac"]["value"]
                expect(0.0 <= share <= ATTRIBUTION_BOUND,
                       f"{workload}: layers cover the traced wall time "
                       f"(unattributed {share:.4f} <= {ATTRIBUTION_BOUND})")
    missing = {m["name"] for m in spec["per_layer"]} - measured
    expect(not missing,
           f"every per-layer metric is measured by some workload "
           f"(missing: {sorted(missing)})")


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def corrupt_served_reply(submit):
    """Nudge the tenth objective reply's value by one ulp (the toy
    set-up sends four, one per dataset)."""
    seen = []

    def wrapper(self, job, *args, **kwargs):
        reply = submit(self, job, *args, **kwargs)
        if job.get("kind") == "objective":
            seen.append(job)
            if len(seen) == 10:
                import numpy as np

                value = reply["result"]["value"]
                reply["result"]["value"] = float(np.nextafter(value, 9.0))
        return reply

    return wrapper


def corrupt_weights(cluster_mvag):
    """Push w* off the simplex."""
    def wrapper(*args, **kwargs):
        out = cluster_mvag(*args, **kwargs)
        out.integration.weights = out.integration.weights * 1.5
        return out

    return wrapper


def check_gate() -> None:
    import repro
    from repro.serve.client import ServeClient

    for label, workload, owner, name, replacement in (
        ("corrupted served reply", "toy-served_mix", ServeClient,
         "submit", corrupt_served_reply),
        ("corrupted library result", "toy-knn_bound", repro,
         "cluster_mvag", corrupt_weights),
    ):
        with patched(owner, name, replacement):
            code, lines, result = invoke(workload, 0)
        expect(
            code == 1 and not result["correct"] and result["failed"] >= 1
            and any(line.startswith("FAILED:") for line in lines),
            f"{label}: exit 1, FAILED line, correct=false",
        )


def check_bare_directory(root: str) -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "knn_bound",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "bare directory: non-zero exit, no result printed")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    run._import_library(time.perf_counter())
    check_metrics(spec)
    check_gate()
    check_bare_directory(root)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
