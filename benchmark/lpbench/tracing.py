"""Spans recorded from outside lpcore, around calls into its public functions.

A traced run replaces module attributes of lpcore (``anchors.assign_targets``,
the ``rotated_iou`` binding that ``spotting`` uses, ...) with wrappers that
time each call. Every span has an id, a name, a start, an end, the id of the
span open around it and the id of the benchmark step it belongs to. Spans
live in one flat array per thread, so evaluate's worker threads record
without a lock, and are written out once the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT_SPAN = 0  # parent id of spans opened outside any other span


class _ThreadStore:
    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        # one row of COLUMNS per span, flattened; float64 holds the ids exactly
        self.rows = array("d")


COLUMNS = ("id", "name", "start", "end", "parent", "step")


class Tracer:
    """Span recorder and attribute patcher for one traced run."""

    def __init__(self):
        self.step = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stores: list[_ThreadStore] = []
        self._main = self._store()
        self._patched: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _store(self) -> _ThreadStore:
        store = getattr(self._local, "store", None)
        if store is None:
            with self._lock:
                store = _ThreadStore(len(self._stores))
                self._stores.append(store)
            self._local.store = store
        return store

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_call=None):
        """Return ``fn`` recording a span per call.

        ``on_call(counters, args, kwargs, result)`` runs inside the span, so
        its cost shows as the wrapped function's own time, not its caller's.
        """
        name_id = self._name_id(name)
        tracer = self
        local = self._local
        main_stack = self._main.stack
        next_id = self._next_id.__next__
        clock = time.perf_counter

        def traced(*args, **kwargs):
            store = getattr(local, "store", None) or tracer._store()
            stack = store.stack
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs under whatever the main
                # thread has open: the call that handed out the work
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = ROOT_SPAN
            span_id = next_id()
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(store.counters, args, kwargs, result)
            finally:
                end = clock()
                stack.pop()
                store.rows.extend((span_id, name_id, start, end, parent, tracer.step))
            return result

        return traced

    def patch(self, module, attribute: str, name: str, on_call=None) -> None:
        """Wrap ``module.attribute`` if the program still has it."""
        original = getattr(module, attribute, None)
        if original is not None:
            self._patched.append((module, attribute, original))
            setattr(module, attribute, self.wrap(original, name, on_call))

    def restore(self) -> None:
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans, sorted by id, as numpy columns; times from trace start."""
        tables, threads = [], []
        for store in self._stores:
            table = np.frombuffer(store.rows, dtype=np.float64).reshape(-1, len(COLUMNS))
            tables.append(table)
            threads.append(np.full(len(table), store.thread_id, dtype=np.int64))
        table = np.concatenate(tables)
        order = np.argsort(table[:, 0], kind="stable")
        table = table[order]
        out = {c: table[:, k].astype(np.int64) for k, c in enumerate(COLUMNS)}
        out["start"] = table[:, 2] - self.origin
        out["end"] = table[:, 3] - self.origin
        out["thread"] = np.concatenate(threads)[order]
        return out

    def span_count(self) -> int:
        return sum(len(store.rows) for store in self._stores) // len(COLUMNS)

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for store in self._stores:
            for key, value in store.counters.items():
                total[key] += value
        return dict(total)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children of one span may overlap when they ran on several threads, so
    the covered time is the union of their intervals, clipped to the parent.
    """
    ids, starts, ends, parents = spans["id"], spans["start"], spans["end"], spans["parent"]
    own = ends - starts
    if ids.size == 0:
        return own
    index_of = {int(i): k for k, i in enumerate(ids)}
    has_parent = np.array([int(p) in index_of for p in parents], dtype=bool)
    child_rows = np.flatnonzero(has_parent)
    if child_rows.size == 0:
        return own
    parent_rows = np.array([index_of[int(parents[r])] for r in child_rows])
    order = np.lexsort((starts[child_rows], parent_rows))
    child_rows, parent_rows = child_rows[order], parent_rows[order]
    covered = np.zeros_like(own)
    bounds = np.flatnonzero(np.diff(parent_rows)) + 1
    for rows, prow in zip(
        np.split(child_rows, bounds), parent_rows[np.r_[0, bounds]]
    ):
        lo = np.maximum(starts[rows], starts[prow])
        hi = np.minimum(ends[rows], ends[prow])
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        if lo.size == 0:
            continue
        reach = np.maximum.accumulate(hi)
        new_group = np.r_[True, lo[1:] > reach[:-1]]
        group_start = lo[new_group]
        group_end = np.maximum.reduceat(hi, np.flatnonzero(new_group))
        covered[prow] = float((group_end - group_start).sum())
    return own - covered


def write_trace(path: Path, tracer: Tracer, spans: dict[str, np.ndarray], meta: dict) -> None:
    """Write the spans column-wise as JSON; times in integer nanoseconds
    from the trace start."""
    columns = {k: v.tolist() for k, v in spans.items() if k not in ("start", "end")}
    for k in ("start", "end"):
        columns[k + "_ns"] = np.rint(spans[k] * 1e9).astype(np.int64).tolist()
    doc = {
        "format": "lpbench-trace-v1",
        "meta": meta,
        "names": tracer.names,
        "counters": tracer.counters(),
        "spans": columns,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
