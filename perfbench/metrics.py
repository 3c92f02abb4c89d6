"""Summary statistics, correctness bookkeeping and the provenance stamp."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: A claim made from this benchmark must also hold on this seed, which is
#: never used while a change is being written or tuned.
HELD_OUT_SEED = 7919

#: Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, count)`` for the highest percentile of the
    ladder that leaves at least ten samples beyond it."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, nearest_rank(samples, q), n
    return 100.0, max(samples) if samples else 0.0, n


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Gate:
    """Counts attempted operations and failed checks for one run.

    Every failed check is recorded with a reason; the run is correct only
    when nothing failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """Count a failed operation when ``ok`` is false."""
        if not ok:
            self.fail(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #


def _git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: str) -> str:
    """sha256 over every ``.py`` file under ``src`` (path + bytes), so a
    record identifies the code even in a checkout without git."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _blas() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {"library": "unknown", "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    # OpenBLAS reports its live thread count; find the loaded library.
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and line.split()[-1][0] == "/"
            })
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "executable": os.path.basename(sys.executable),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
