"""Layer spans recorded from outside the package.

A ``Tracer`` replaces public names at module boundaries with thin wrappers
that record one span (name, start, end, parent) per call while the tracer is
active.  Spans live in flat arrays in memory and are written out once, at
exit.  Nothing is wrapped until ``Tracer.wrap`` is called, so an untraced
process runs the package's own functions.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ORIGINAL_ATTR = "__perfbench_original__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``count(result, arguments)`` returns a dict of counter increments,
        given the call's arguments by parameter name; it runs after the span
        closes, with tracing paused.
        """
        original = bound(owner, attr)
        signature = inspect.signature(original) if count is not None else None
        sid = self.span_id(name)
        tracer = self
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            i = len(starts)
            name_ids.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer.paused():
                    for key, k in count(result, bound.arguments).items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + int(k)
            return result

        setattr(wrapper, ORIGINAL_ATTR, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- reading ------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start=start, end=end,
        )


def bound(owner, attr):
    """What ``owner.attr`` is bound to; for a class, the function itself."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def is_wrapped(obj) -> bool:
    return hasattr(obj, ORIGINAL_ATTR)


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds per span of wrapper work outside the span's own interval.

    A wrapper records its bookkeeping before the span starts and after it
    ends, so that time falls in the parent span (or, for a root span, in the
    unattributed time).  It is measured on a no-op: the median over repeats
    of (wrapped calls - plain calls - recorded span time) / calls.
    """
    costs = []
    for _ in range(repeats):
        box = types.SimpleNamespace(f=lambda: None)
        plain = box.f
        probe = Tracer()
        probe.wrap(box, "f", "probe")
        wrapped = box.f
        t0 = perf_counter()
        for _ in range(calls):
            plain()
        t1 = perf_counter()
        probe.active = True
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        _, _, start, end = probe.arrays()
        costs.append(((t2 - t1) - (t1 - t0) - float((end - start).sum())) / calls)
    return statistics.median(costs)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               cost: float = 0.0) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover, and
    minus ``cost`` (see ``span_cost``) per child for the children's wrappers.

    Children of one parent must lie inside it and must not overlap each
    other; both hold for spans recorded on one thread with a call stack, and
    both are checked, so the covered time is the sum of child durations.
    """
    dur = end - start
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        raise ValueError("a child span lies outside its parent")
    order = child[np.lexsort((start[child], p))]
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(start[order[1:]][same] < end[order[:-1]][same]):
        raise ValueError("sibling spans overlap")
    covered = np.bincount(p, weights=dur[child], minlength=dur.size)
    return dur - covered - cost * np.bincount(p, minlength=dur.size)


def layer_totals(names, name_id, parent, start, end, lo: int = 0, hi: int | None = None,
                 cost: float = 0.0):
    """Per span name: (calls, self seconds) over spans lo..hi.

    Spans lo..hi must be closed under parenthood (one timed pass).
    ``root_s`` is the summed duration of spans with no parent plus ``cost``
    per such span (their wrappers).
    """
    sl = slice(lo, hi)
    par = parent[sl].astype(np.int64)
    par = np.where(par >= 0, par - lo, -1)
    self_s = self_times(par, start[sl], end[sl], cost)
    ids = name_id[sl]
    calls = np.bincount(ids, minlength=len(names))
    secs = np.bincount(ids, weights=self_s, minlength=len(names))
    roots = par < 0
    root_s = float((end[sl][roots] - start[sl][roots]).sum()) + cost * int(roots.sum())
    return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(names)}, root_s
