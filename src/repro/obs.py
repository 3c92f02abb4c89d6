"""One stats substrate (DESIGN.md §16): the only place counters are
merged (:class:`Counters`, :class:`CounterTable`) or wire snapshots
folded (:func:`fold_snapshots`).
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import fields
from typing import (
    Any, Deque, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

#: the percentiles every sample window reports, in milliseconds.
SNAPSHOT_PERCENTILES = (50, 99)

_PERCENTILE_KEY = re.compile(r"_p\d+_ms$")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def _ordered(labels: Iterable[str], fixed: Tuple[str, ...]) -> List[str]:
    """The fixed labels in their given order, then the rest sorted."""
    return list(fixed) + sorted(label for label in labels if label not in fixed)


class Counters:
    """Mergeable counters for a ``@dataclass`` subclass: sharded runs
    merge per-worker stats back in item order, so the aggregate equals
    what a single-process run would have recorded."""

    #: fields that are configuration, not counters: merge keeps them.
    config_fields: Tuple[str, ...] = ()

    def merge(self, other: "Counters") -> "Counters":
        """Add ``other``'s int/float fields, and its dict fields key by
        key, into this object; returns ``self``.

        Aliasing-safe: ``other`` is read in full (dicts copied) before
        anything is written, so ``stats.merge(stats)`` doubles.
        """
        names = [f.name for f in fields(self) if f.name not in self.config_fields]
        values = [getattr(other, name) for name in names]
        values = [dict(v) if isinstance(v, dict) else v for v in values]
        for name, value in zip(names, values):
            if isinstance(value, dict):
                mine = getattr(self, name)
                for key, count in value.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, name, getattr(self, name) + value)
        return self

    __iadd__ = merge


def _window_percentiles(name: str, samples: Sequence[float]) -> Dict[str, float]:
    return {
        f"{name}_p{q}_ms": percentile(samples, q) * 1e3
        for q in SNAPSHOT_PERCENTILES
    }


class CounterTable:
    """Locked rows of named counters plus bounded sample windows.

    ``counters`` are the names every row holds (any other raises
    ``KeyError``); each row keeps its last ``window`` samples, so a
    long-lived process's stats memory is O(rows), not O(requests);
    ``labels`` are rows that exist, in that order, from the start.
    """

    def __init__(
        self, counters: Iterable[str], window: int = 0,
        labels: Iterable[str] = (),
    ) -> None:
        self._zero = dict.fromkeys(counters, 0)
        self._window = int(window)
        self._labels = tuple(labels)
        self._lock = threading.Lock()
        self._rows: Dict[str, Dict[str, int]] = {}
        self._samples: Dict[str, Deque[float]] = {}
        for label in self._labels:
            self._row(label)

    def _row(self, label: str) -> Dict[str, int]:
        # Caller holds the lock (or is the constructor).
        row = self._rows.get(label)
        if row is None:
            row = self._rows[label] = dict(self._zero)
            self._samples[label] = deque(maxlen=self._window)
        return row

    def bump(self, label: str, counter: str, by: int = 1) -> None:
        if counter not in self._zero:
            raise KeyError(counter)
        with self._lock:
            self._row(label)[counter] += by

    def observe(self, label: str, value: float) -> None:
        """Append ``value`` to ``label``'s sample window."""
        with self._lock:
            self._row(label)
            self._samples[label].append(float(value))

    def samples(self) -> List[float]:
        """Every row's window, concatenated (a copy)."""
        with self._lock:
            return [v for window in self._samples.values() for v in window]

    def snapshot(
        self, window_name: Optional[str] = None
    ) -> Tuple[Dict[str, dict], Dict[str, Any]]:
        """``(rows, totals)`` as one consistent picture.

        Rows come fixed ``labels`` first, then sorted; totals sum each
        counter over the rows.  With ``window_name``, each row gains
        ``<window_name>_p50_ms``/``_p99_ms`` over its window, and the
        totals the same over the union of the windows.
        """
        with self._lock:
            labels = _ordered(self._rows, self._labels)
            rows = {label: dict(self._rows[label]) for label in labels}
            windows = {label: list(self._samples[label]) for label in labels}
        totals: Dict[str, Any] = {
            name: sum(row[name] for row in rows.values()) for name in self._zero
        }
        if window_name is not None:
            for label, row in rows.items():
                row.update(_window_percentiles(window_name, windows[label]))
            union = [v for window in windows.values() for v in window]
            totals.update(_window_percentiles(window_name, union))
        return rows, totals


class Rows(NamedTuple):
    """A labelled row map in a :func:`fold_snapshots` shape."""

    row: Mapping[str, Any]
    labels: Tuple[str, ...] = ()


def _zero(shape):
    if isinstance(shape, Rows):
        return {label: _zero(shape.row) for label in shape.labels}
    if isinstance(shape, Mapping):
        return {key: _zero(value) for key, value in shape.items()}
    return shape


def _fold(merged: dict, snap: Mapping[str, Any], shape) -> None:
    for key, value in snap.items():
        if isinstance(shape, Rows):
            sub = shape.row
        elif key in shape:
            sub = shape[key]
        else:
            continue  # a key this version does not know
        if isinstance(sub, (Mapping, Rows)):
            if isinstance(value, Mapping):
                _fold(merged.setdefault(key, _zero(sub)), value, sub)
        elif isinstance(sub, bool):
            merged[key] = merged[key] or bool(value)
        elif _PERCENTILE_KEY.search(key):
            merged[key] = max(merged[key], float(value))
        else:
            merged[key] += int(value or 0)
    if isinstance(shape, Rows):
        for label in _ordered(list(merged), shape.labels):
            merged[label] = merged.pop(label)


def fold_snapshots(
    snaps: Iterable[Optional[Mapping[str, Any]]], shape: Mapping[str, Any]
) -> Dict[str, Any]:
    """Fold wire snapshots into one picture shaped like ``shape``.

    ``shape`` is what an idle process sends (counters 0, percentiles
    0.0, flags ``False``; labelled row maps as :class:`Rows`, whose
    ``labels`` always appear).  Counters sum; ``*_p<q>_ms`` percentiles
    take the maximum (a sum of percentiles means nothing, the max is
    the honest tail bound); a flag is true if any snapshot's is.  Keys
    a snapshot lacks read as zero and keys ``shape`` lacks are ignored,
    so a mixed-version fleet aggregates.  ``None`` snapshots are skipped.
    """
    merged = _zero(shape)
    for snap in snaps:
        if snap:
            _fold(merged, snap, shape)
    return merged
