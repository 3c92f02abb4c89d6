"""Span tracing of the library's layers, from outside the package.

:func:`traced` wraps the public entry point of each layer where its
caller looks the name up (the modules import by name, so patching the
defining module alone would miss most calls), records one span per call
and restores every original on exit.  Spans stay in memory; the caller
writes them out.  Counts are read from the objects the wrapped calls
return (``EigenResult`` per solve) or from counters the library already
keeps (``SpectralObjective.n_evaluations``), so they repeat exactly.

Span names are the layer names of the ledger:

* ``knn`` — ``knn_graph`` as view building calls it;
* ``laplacian`` — ``build_view_laplacians`` and ``normalized_laplacian``
  (self time excludes their kNN children);
* ``stack`` — ``StackedLaplacians`` construction;
* ``aggregate`` — ``StackedLaplacians.combine`` / ``combine_many`` /
  ``aggregate`` / ``operator`` and ``aggregate_laplacians``;
* ``objective`` — ``SpectralObjective.components`` / ``evaluate_batch``;
* ``eigen`` — ``solve`` / ``solve_many`` of every registered eigensolver
  backend, which every solve in the package goes through;
* ``optim`` — ``minimize_on_simplex`` as SGLA, SGLA+ and the single
  objective integrations call it;
* ``surrogate`` — ``fit_surrogate`` as SGLA+ calls it;
* ``cluster`` — ``spectral_clustering`` as the pipeline calls it;
* ``embed`` — ``netmf_from_laplacian`` / ``sketchne_embedding`` as the
  pipeline calls them.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: The share of a traced call its layer spans may leave uncovered.
ATTRIBUTION_BOUND = 0.05

LAYERS = (
    "knn", "laplacian", "stack", "aggregate", "objective", "eigen",
    "optim", "surrogate", "cluster", "embed",
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: span names from the root down to (excluding) this span.
    ancestors: tuple
    counts: Dict[str, float]


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may put counts in."""
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        ancestors = tuple(s[1] for s in stack)
        counts: Dict[str, float] = {}
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    sid, name, start, end,
                    parent[0] if parent else None, ancestors, counts,
                ))

    def inside(self, name: str) -> bool:
        """True when the current thread is inside a ``name`` span."""
        return any(entry[1] == name for entry in self._stack())

    # ------------------------------------------------------------------ #

    def descendants(self, root: Span) -> List[Span]:
        children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        out, todo = [], [root.sid]
        while todo:
            for child in children.get(todo.pop(), []):
                out.append(child)
                todo.append(child.sid)
        return out

    def ledger(self, root: Span) -> Dict[str, float]:
        """Self seconds per layer under ``root`` (span duration minus the
        part its direct children cover), plus ``eigen`` time split by
        the layer that called it."""
        spans = self.descendants(root)
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        self_s = {name: 0.0 for name in LAYERS}
        for span in spans:
            own = span.end - span.start - child_time.get(span.sid, 0.0)
            self_s[span.name] = self_s.get(span.name, 0.0) + own
        root_self = root.end - root.start - child_time.get(root.sid, 0.0)
        return {"self": self_s, "unattributed_s": root_self}

    def counts(self, root: Span, within: Optional[str] = None
               ) -> Dict[str, float]:
        """Sum of every span's counts under ``root``, keyed
        ``layer.count``; only spans inside a ``within`` span if given."""
        total: Dict[str, float] = {}
        for span in self.descendants(root):
            if within is not None and within not in span.ancestors:
                continue
            for key, value in span.counts.items():
                name = f"{span.name}.{key}"
                total[name] = total.get(name, 0.0) + value
        return total

    def time_within(self, root: Span, name: str, ancestor: str) -> float:
        """Wall seconds of outermost ``name`` spans that run inside an
        ``ancestor`` span under ``root``."""
        return sum(
            span.end - span.start
            for span in self.descendants(root)
            if span.name == name and ancestor in span.ancestors
            and name not in span.ancestors
        )


# ---------------------------------------------------------------------- #
# Patch points
# ---------------------------------------------------------------------- #


def _wrap(tracer: Tracer, name: str, fn: Callable,
          count: Optional[Callable] = None) -> Callable:
    """``fn`` inside a ``name`` span; ``count(counts, args, result,
    before)`` fills the span's counts (``before`` is what
    ``count.before(args)`` returned when given)."""
    before_fn = getattr(count, "before", None)

    def wrapper(*args, **kwargs):
        outermost = not tracer.inside(name)
        with tracer.span(name) as counts:
            before = before_fn(args) if (before_fn and outermost) else None
            result = fn(*args, **kwargs)
            if count is not None and outermost:
                count(counts, args, result, before)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_solve(counts, args, result, before) -> None:
    problem = args[0]
    counts["solves"] = 1
    counts["matvecs"] = int(result.matvecs)
    counts["warm"] = int(problem.v0 is not None)
    counts["coarse"] = int(problem.tol > 0)


def _count_solve_many(counts, args, results, before) -> None:
    problems = args[0]
    counts["solves"] = len(results)
    counts["matvecs"] = int(sum(result.matvecs for result in results))
    counts["warm"] = sum(int(p.v0 is not None) for p in problems)
    counts["coarse"] = sum(int(p.tol > 0) for p in problems)


def _count_knn(counts, args, result, before) -> None:
    counts["calls"] = 1


def _count_objective(counts, args, result, before) -> None:
    counts["evaluations"] = args[0].n_evaluations - before


_count_objective.before = lambda args: args[0].n_evaluations


def _patch_points():
    """``(owner, attribute, layer, counter)`` for every wrapped name."""
    import repro.core.fastpath as fastpath
    import repro.core.laplacian as laplacian
    import repro.core.objective as objective
    import repro.core.pipeline as pipeline
    import repro.core.sgla as sgla
    import repro.core.sgla_plus as sgla_plus
    import repro.core.integration as integration
    import repro.solvers.registry as registry

    points = [
        (laplacian, "knn_graph", "knn", _count_knn),
        (laplacian, "normalized_laplacian", "laplacian", None),
        (sgla, "build_view_laplacians", "laplacian", None),
        (laplacian, "aggregate_laplacians", "aggregate", None),
        (objective, "aggregate_laplacians", "aggregate", None),
        (integration, "aggregate_laplacians", "aggregate", None),
        (fastpath.StackedLaplacians, "__init__", "stack", None),
        (fastpath.StackedLaplacians, "combine", "aggregate", None),
        (fastpath.StackedLaplacians, "combine_many", "aggregate", None),
        (fastpath.StackedLaplacians, "aggregate", "aggregate", None),
        (fastpath.StackedLaplacians, "operator", "aggregate", None),
        (objective.SpectralObjective, "components", "objective",
         _count_objective),
        (objective.SpectralObjective, "evaluate_batch", "objective",
         _count_objective),
        (sgla, "minimize_on_simplex", "optim", None),
        (sgla_plus, "minimize_on_simplex", "optim", None),
        (integration, "minimize_on_simplex", "optim", None),
        (sgla_plus, "fit_surrogate", "surrogate", None),
        (pipeline, "spectral_clustering", "cluster", None),
        (pipeline, "netmf_from_laplacian", "embed", None),
        (pipeline, "sketchne_embedding", "embed", None),
    ]
    for backend in registry._REGISTRY.values():
        points.append((backend, "solve", "eigen", _count_solve))
        points.append((backend, "solve_many", "eigen", _count_solve_many))
    return points


@contextmanager
def traced(tracer: Tracer):
    """Patch every layer entry point for the duration of the block."""
    patched = []
    try:
        for owner, attribute, layer, count in _patch_points():
            had_own = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, _wrap(tracer, layer, original, count))
            patched.append((owner, attribute, had_own, original))
        yield tracer
    finally:
        for owner, attribute, had_own, original in reversed(patched):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
