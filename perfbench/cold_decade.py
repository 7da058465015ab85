"""Workload ``cold-decade``: a cold scenario report for each study year.

Each report is made as the service makes it: ``execute_job`` with kind
``stream-report`` at the default ``JobSpec`` budget, against an empty
capture cache and a fresh checkpoint directory, so every year simulates,
stores its capture, streams it and renders.  Runs repeat whole decades
until the timed phase is over.  An operation is one year's report.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from typing import Any, Dict, List

import checks
import host
from repro.core import analyze_period
from repro.core.report import paper_report
from repro.enrichment import ScannerClassifier, build_default_registry
from repro.reporting import (render_paper_report, render_paper_report_json,
                             render_report_doc)
from repro.serve.jobs import JobSpec, execute_job
from repro.simulation import ALL_YEARS
from repro.telescope.trace import read_trace


def _job(spec: JobSpec, where) -> Dict[str, Any]:
    return execute_job({
        "spec": spec.to_dict(),
        "cache_dir": str(where / "captures"),
        "checkpoint_dir": str(where / "checkpoints"),
    })


def _reference(path: str) -> Dict[str, Any]:
    """The batch ``analyze --report`` rendering of one capture, plus the
    numpy recount and the ground-truth check of its batch scans."""
    capture = checks.read_capture(path)
    meta = capture["meta"]
    analysis = analyze_period(
        read_trace(path)[0], year=meta["year"], days=meta["days"],
        classifier=ScannerClassifier(build_default_registry()),
    )
    report = paper_report(analysis)
    return {
        "capture": capture,
        "text": render_paper_report(report),
        "json": render_paper_report_json(report),
        "tools": checks.tool_counts(analysis.scans.tool),
        "scans": len(analysis.scans),
        "ground_truth": checks.check_ground_truth(
            f"{meta['year']} batch", analysis.scans, meta["campaigns"]),
    }


def _check(year: int, result: Dict[str, Any], refs: Dict[str, Any]) -> List[str]:
    path = result["capture"]["path"]
    with open(path, "rb") as handle:
        digest = hashlib.blake2b(handle.read(), digest_size=16).hexdigest()
    if digest not in refs:
        refs[digest] = _reference(path)
    ref = refs[digest]
    label = f"cold report {year}"
    stats = result["stream"]["stats"]
    return (
        checks.check_identity(label, result["report_text"],
                              render_report_doc(result["report"]),
                              ref["text"], ref["json"])
        + checks.check_counts(label, result["report"], ref["capture"],
                              consumed=stats["packets"])
        + checks.check_fingerprints(label, result["fingerprints"], ref["tools"])
        + ([] if stats["scans"] == ref["scans"] else
           [f"{label}: stream found {stats['scans']} scans, batch {ref['scans']}"])
        + ref["ground_truth"]
    )


def run(ctx: host.Context) -> host.Outcome:
    warmups = []
    warm_started = time.perf_counter()
    for i in range(3):
        where = ctx.work / f"warmup{i}"
        start = time.perf_counter()
        _job(JobSpec(kind="stream-report", year=ALL_YEARS[0], days=1,
                     max_packets=20_000, min_scans=50, seed=ctx.seed), where)
        warmups.append(time.perf_counter() - start)
        shutil.rmtree(where)
    setup_s = host.setup_time(ctx, warm_started, warmups)

    ops = host.new_ops(*(f"report-{year}" for year in ALL_YEARS))
    results: List[tuple] = []
    decades: List[float] = []
    cpu = 0.0
    while sum(decades) < ctx.seconds or not decades:
        where = ctx.work / f"decade{len(decades)}"
        decade = 0.0
        for year in ALL_YEARS:
            spec = JobSpec(kind="stream-report", year=year, seed=ctx.seed)
            with host.operation(ctx.recorder, "serve.execute_job"):
                start, cpu_start = time.perf_counter(), time.process_time()
                result = _job(spec, where)
                elapsed = time.perf_counter() - start
                cpu += time.process_time() - cpu_start
            decade += elapsed
            results.append((year, elapsed, result))
        decades.append(decade)
        shutil.rmtree(where / "checkpoints")
    peak = host.peak_rss_mb()

    unexpected: List[str] = []
    refs: Dict[str, Any] = {}
    for year, elapsed, result in results:
        host.record(ops, unexpected, f"report-{year}", elapsed,
                    _check(year, result, refs))
    cold = statistics.mean(decades) / len(ALL_YEARS)
    jobs = [e for _y, e, _r in results]
    return host.Outcome(
        setup_s=setup_s, peak_rss_mb=peak, timed_s=sum(decades), cpu_s=cpu,
        rounds=len(decades), ops=ops, unexpected=unexpected,
        figures={"cold_report_s": cold},
        layer_values={"serve.cold_job_s": statistics.mean(jobs)},
    )
