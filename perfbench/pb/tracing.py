"""Host-time spans recorded around calls into the simulator's layers.

A span is a dict ``{id, name, start, end, parent, run, pid}``. Names are
``<layer>.<call>``, where the layer is a ``repro`` package name, so
per-layer self time is a group-by on the first dotted component. Spans
live in memory and are written once, as Chrome trace-event JSON, when
the traced run ends.

Times come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans recorded in pool workers line up
with the parent's.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: the recording process; a forked pool worker sees another pid
        self.pid = os.getpid()
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._next = 0

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        record = {"id": self._new_id(), "name": name,
                  "parent": self.current, "run": self.run_id,
                  "pid": os.getpid(), "start": time.perf_counter(),
                  "end": None}
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper for the rest of
        the process (traced runs are throwaway processes)."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def adopt(self, spans: Iterable[Dict], parent: Optional[int]) -> None:
        """Merge spans recorded elsewhere (a pool worker), re-numbering
        them and hanging their roots under ``parent``."""
        spans = list(spans)
        remap = {s["id"]: self._new_id() for s in spans}
        for s in spans:
            copy = dict(s)
            copy["id"] = remap[s["id"]]
            copy["parent"] = remap.get(s["parent"], parent) \
                if s["parent"] is not None else parent
            copy["run"] = self.run_id
            self.spans.append(copy)

    def take(self) -> List[Dict]:
        """Hand over and forget the recorded spans."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (trials running in parallel pool workers) count once.
    """
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    children: Dict[int, List[tuple]] = {s["id"]: [] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None \
            else None
        if parent is None:
            continue
        start = max(s["start"], parent["start"])
        end = min(s["end"], parent["end"])
        if end > start:
            children[parent["id"]].append((start, end))
    return {sid: (by_id[sid]["end"] - by_id[sid]["start"])
            - _covered(children[sid]) for sid in by_id}


def layer_self_times(spans: Iterable[Dict]) -> Dict[str, float]:
    """Layer name -> summed self time of its spans."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def chrome_trace(spans: Iterable[Dict]) -> Dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    spans = list(spans)
    own = self_times(spans)
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for s in sorted(spans, key=lambda s: (s["start"], s["id"])):
        layer = s["name"].split(".", 1)[0]
        events.append({
            "name": s["name"], "cat": layer, "ph": "X",
            "ts": (s["start"] - origin) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"], "tid": s["pid"],
            "args": {"id": s["id"], "parent": s["parent"],
                     "run": s["run"], "self_us": own[s["id"]] * 1e6},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
