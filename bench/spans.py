"""In-memory spans recorded around the benchmark's own calls into splineqi.

A span has a name, a start, an end and the id of the span that was open
when it began (its cause).  Spans are appended to flat arrays while the run
goes and written out as JSON lines when it ends.  Coarse spans (rounds and
the operation classes inside them) are always kept, because the end-to-end
metrics are read from them; call-level spans are kept only when tracing is
on, so an untraced run pays one branch per call.
"""

from __future__ import annotations

import json
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Spans:
    def __init__(self, detail: bool):
        self.detail = detail
        self.origin = perf_counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self._end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn, inside a call-level span when tracing is on."""
        if not self.detail:
            return fn(*args, **kwargs)
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # ------------------------------------------------------------ read-out

    @property
    def starts(self) -> np.ndarray:
        return np.array(self._start, dtype=float)

    @property
    def ends(self) -> np.ndarray:
        return np.array(self._end, dtype=float)

    def select(self, name: str, values) -> list[float]:
        """The entries of a per-span array that belong to spans of this name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        mask = np.array(self._name) == nid
        return [float(v) for v in np.asarray(values)[mask]]

    def self_times(self, durations) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the durations of its
        children.  Children of one span never overlap (one thread)."""
        durations = np.asarray(durations, dtype=float)
        parent = np.array(self._parent)
        child = np.zeros(len(durations))
        has = parent >= 0
        np.add.at(child, parent[has], durations[has])
        own = durations - child
        names = np.array(self._name)
        return {name: [float(v) for v in own[names == nid]] for name, nid in self._name_ids.items()}

    def write_jsonl(self, path) -> int:
        with open(path, "w") as fh:
            for s in range(len(self._start)):
                fh.write(
                    json.dumps(
                        {
                            "id": s,
                            "name": self._names[self._name[s]],
                            "start": self._start[s] - self.origin,
                            "end": self._end[s] - self.origin,
                            "parent": self._parent[s],
                        }
                    )
                    + "\n"
                )
        return len(self._start)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """90th percentile, reported only where at least 100 samples exist."""
    if len(values) < 100:
        return 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])
