"""In-memory span recorder with class-level wrappers installed from outside.

A span is ``(name, start, end, parent)``.  Wrappers are installed around the
public entry points of the program's modules (see ``layers.py``) without
touching the program's source: each call records one span whose parent is
the innermost open span of the same thread.  Spans stay in memory and are
written out once, when the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover; the spans of a nested call tree partition the time their
top-level spans cover, so the sum of self times over all spans equals that
covered time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
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


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus the union of its children
    (each child clipped to the parent's interval)."""
    children: Dict[int, List[Interval]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(i, ()) if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(clipped))
    return out


def covered(spans: Sequence[Sequence]) -> float:
    """Wall time covered by top-level spans (overlaps across threads
    counted once)."""
    return union_length((s[1], s[2]) for s in spans if s[3] < 0)


class SpanRecorder:
    """Collects spans from wrapped callables; thread-aware parenting."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:   # the archive workload records from two threads
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def wrap(self, target: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Wrap ``module:Qual.name`` (a function or a class attribute).

        ``count(args, kwargs, result)`` optionally adds a work count to
        ``counts[name]`` on every call (rows ingested, rows predicted ...).
        """
        module_name, _, qual = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if count is not None:
                recorder.add_count(name, count(args, kwargs, result))
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return out

    def write(self, path: str, origin: float) -> None:
        """Write the spans as JSON (times relative to ``origin``)."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], round(s[1] - origin, 7), round(s[2] - origin, 7),
                 s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, handle)
