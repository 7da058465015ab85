"""In-memory span recorder for the traced benchmark run.

A span is ``(id, parent, op, name, start, end, tid)``: ``parent`` is the
span that was open on the same thread when it began, ``op`` the benchmark
operation (one decade year, one capture pass, one HTTP request) it belongs
to.  Spans stay in memory and are written out once, when the run ends, as
a Chrome trace-event file (opens in Perfetto) and a per-name table of self
time: a span's duration minus the part covered by its direct children.

Entry points are wrapped from outside the program (:func:`wrap_function`,
:func:`wrap_method`), so the program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, int, str, float, float, int]


class Recorder:
    """Collects spans and counters; thread-safe for the threads of one process.

    ``active`` gates recording, so set-up work can run through the wrapped
    entry points without being counted.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operations ---------------------------------------------------------

    @contextmanager
    def op(self, op_id: Optional[int] = None) -> Iterator[int]:
        """Mark every span opened inside as part of one operation."""
        local = self._local
        previous = getattr(local, "op", 0)
        local.op = next(self._ops) if op_id is None else op_id
        try:
            yield local.op
        finally:
            local.op = previous

    def set_op(self, op_id: int) -> None:
        self._local.op = op_id

    # -- spans and counters -------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, getattr(local, "op", 0), name,
                               start, end, threading.get_ident()))

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            with self._lock:
                self.counters[name] += value

    def high_water(self, name: str, value: float) -> None:
        if self.active:
            with self._lock:
                self.maxima[name] = max(self.maxima[name], value)

    def reset(self) -> None:
        self.spans = []
        with self._lock:
            self.counters.clear()
            self.maxima.clear()

    # -- reduction ----------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        return {"pid": os.getpid(), "spans": self.spans,
                "counters": dict(self.counters), "maxima": dict(self.maxima)}


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over one process's spans."""
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _op, _name, start, end, _tid in spans:
        if parent:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for span_id, _parent, _op, name, start, end, _tid in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return table


def chrome_trace(processes: List[Tuple[int, str, List[Span]]]) -> Dict[str, Any]:
    """Trace-event document (``ph: X`` complete events, microseconds)."""
    events: List[Dict[str, Any]] = []
    origin = min((s[4] for _, _, spans in processes for s in spans), default=0.0)
    for pid, label, spans in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for span_id, parent, op, name, start, end, tid in spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"id": span_id, "parent": parent, "op": op},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


# -- wrapping entry points from outside ---------------------------------------

def _traced(rec: Recorder, name: str, fn: Callable,
            after: Optional[Callable[[Any, tuple, dict], None]]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None and rec.active:
            after(result, args, kwargs)
        return result
    return wrapper


def wrap_function(rec: Recorder, module: Any, attr: str, name: str,
                  after: Optional[Callable[[Any, tuple, dict], None]] = None) -> None:
    """Wrap ``module.attr`` and every loaded ``repro`` module's by-name import of it."""
    original = getattr(module, attr)
    wrapper = _traced(rec, name, original, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def wrap_method(rec: Recorder, cls: type, attr: str, name: str,
                after: Optional[Callable[[Any, tuple, dict], None]] = None) -> None:
    setattr(cls, attr, _traced(rec, name, getattr(cls, attr), after))


def wrap_generator_method(rec: Recorder, cls: type, attr: str, name: str) -> None:
    """Time each step of a generator method as one span (reads interleave
    with the consumer's work, so the generator's whole life is no span)."""
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            with rec.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    setattr(cls, attr, wrapper)
