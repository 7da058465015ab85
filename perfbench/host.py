"""What every workload shares: run context, outcome, host probe, statistics."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np


@dataclass
class Context:
    root: Path                 # checkout root (holds src/)
    work: Path                 # scratch directory, removed after the run
    seed: int
    seconds: int               # length of the timed phase
    recorder: Optional[Any]    # spans.Recorder in traced runs, else None
    started: float             # perf_counter at process start (+ host probe)


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    setup_s: float
    peak_rss_mb: float
    timed_s: float
    #: CPU seconds the working process spent in the timed phase
    cpu_s: float
    rounds: int
    #: op kind -> {"attempted", "failed", "reasons", "latencies_s"}
    ops: Dict[str, Dict[str, Any]]
    #: failure reasons other than the known fault (make ``correct`` false)
    unexpected: List[str]
    #: workload-specific figures, printed in the summary line
    figures: Dict[str, float] = field(default_factory=dict)
    #: extra per-layer values measured by the workload itself
    layer_values: Dict[str, float] = field(default_factory=dict)
    #: client-side latency per traced operation id (joins server spans)
    client_latency: Dict[int, float] = field(default_factory=dict)
    #: span dumps of other processes (the server), for the traced run
    remote: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def metrics(self) -> Dict[str, float]:
        medians = [statistics.median(k["latencies_s"])
                   for k in self.ops.values() if k["latencies_s"]]
        return {
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "op_latency_ms": 1000.0 * geomean(medians),
        }

    @property
    def cpu_ms_per_op(self) -> float:
        completed = sum(len(k["latencies_s"]) for k in self.ops.values())
        return 1000.0 * self.cpu_s / completed


def new_ops(*kinds: str) -> Dict[str, Dict[str, Any]]:
    return {k: {"attempted": 0, "failed": 0, "reasons": [], "latencies_s": []}
            for k in kinds}


def record(ops: Dict[str, Dict[str, Any]], unexpected: List[str], kind: str,
           latency_s: float, reasons: Sequence[str],
           known: bool = False) -> None:
    """Count one operation; a failed one keeps its reasons."""
    row = ops[kind]
    row["attempted"] += 1
    row["latencies_s"].append(latency_s)
    if reasons:
        row["failed"] += 1
        row["reasons"].extend(reasons[:max(0, 3 - len(row["reasons"]))])
        if not known:
            unexpected.extend(reasons)


@contextmanager
def operation(recorder: Optional[Any], span: Optional[str] = None) -> Iterator[None]:
    """In traced runs, record the spans inside as one operation (in ``span``
    when given), and nothing outside it, such as the checks; untraced, do
    nothing.  For workloads that run one operation at a time."""
    if recorder is None:
        yield
        return
    recorder.active = True
    try:
        with recorder.op():
            if span is None:
                yield
            else:
                with recorder.span(span):
                    yield
    finally:
        recorder.active = False


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def setup_time(ctx: Context, warmups_started: float,
               warmups: Sequence[float]) -> float:
    """One-off set-up (process start to the warm-ups) plus the median
    warm-up pass: the warm-up repeats, so its median is the steady part."""
    return warmups_started - ctx.started + statistics.median(warmups)


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ref_loop() -> float:
    """A fixed numpy-plus-Python loop; its time tells a slow host from a
    slow program."""
    start = time.perf_counter()
    values = np.random.default_rng(12345).random(200_000)
    for _ in range(10):
        values = np.sort(values)[::-1].copy()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start
