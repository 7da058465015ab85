"""Workload ``capture-analysis``: three analyses of one existing capture.

Set-up writes one capture (2024, 21 days, about 600k packets) with the
``repro-scan simulate`` CLI in a child process, so this process's memory is
the analysis alone, and takes the reference rendering from
``repro-scan analyze --report`` (and ``--json``).  Each round then runs

* ``batch``: ``read_trace`` -> ``analyze_period`` -> ``paper_report`` ->
  text rendering, the path ``analyze --report`` takes;
* ``stream``: ``stream_report`` at the default 64k-packet windows;
* ``hourly``: ``stream_report`` with ``window_s=3600`` (about 500 windows,
  so the incremental identifier's per-window cost dominates).

A round is 3 batch, 2 stream and 1 hourly pass, interleaved (about 9 s
here).  An operation is one pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

import checks
import host
from repro.cli import main as repro_scan
from repro.core import analyze_period
from repro.core.report import paper_report
from repro.enrichment import ScannerClassifier, build_default_registry
from repro.reporting import render_paper_report, render_paper_report_json
from repro.stream import stream_report
from repro.telescope.trace import read_trace

ROUND = ("batch", "stream", "batch", "hourly", "batch", "stream")


def _write_capture(ctx: host.Context) -> str:
    cache = ctx.work / "captures"
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "simulate", "--year", "2024",
         "--days", "21", "--max-packets", "600000", "--min-scans", "600",
         "--seed", str(ctx.seed), "--cache-dir", str(cache),
         "--out", str(ctx.work / "capture.rtrace")],
        check=True, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # The cache entry carries the ground-truth campaigns in its meta block.
    (entry,) = cache.glob("*.rtrace")
    return str(entry)


def _cli_report(path: str, *flags: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = repro_scan(["analyze", path, "--report", *flags])
    if status != 0:
        raise RuntimeError(f"repro-scan analyze --report {flags} exited {status}")
    return out.getvalue()[:-1]  # print() added one newline


def _pass(kind: str, path: str, year: int, days: int):
    """One timed analysis: returns (report, text, scans, packets consumed)."""
    if kind == "batch":
        batch = read_trace(path)[0]
        analysis = analyze_period(
            batch, year=year, days=days,
            classifier=ScannerClassifier(build_default_registry()))
        report = paper_report(analysis)
        return report, render_paper_report(report), analysis.scans, len(batch)
    result = stream_report(path, window_s=3600.0 if kind == "hourly" else None)
    report = result.report
    return report, render_paper_report(report), result.scans, result.stats.packets


def run(ctx: host.Context) -> host.Outcome:
    path = _write_capture(ctx)
    capture = checks.read_capture(path)
    meta = capture["meta"]
    ref_text, ref_json = _cli_report(path), _cli_report(path, "--json")

    warmups = []
    warm_started = time.perf_counter()
    for _ in range(3):
        start = time.perf_counter()
        for kind in ("batch", "stream"):
            _pass(kind, path, meta["year"], meta["days"])
        warmups.append(time.perf_counter() - start)
    setup_s = host.setup_time(ctx, warm_started, warmups)

    ops = host.new_ops("batch", "stream", "hourly")
    unexpected: List[str] = []
    timed = cpu = 0.0
    rounds = 0
    while timed < ctx.seconds or rounds == 0:
        for kind in ROUND:
            with host.operation(ctx.recorder):
                start, cpu_start = time.perf_counter(), time.process_time()
                report, text, scans, consumed = _pass(
                    kind, path, meta["year"], meta["days"])
                elapsed = time.perf_counter() - start
                cpu += time.process_time() - cpu_start
            timed += elapsed
            # Checked outside the timed span, before the next pass.
            label = f"{kind} pass"
            json_text = render_paper_report_json(report)
            host.record(ops, unexpected, kind, elapsed, (
                checks.check_identity(label, text, json_text, ref_text, ref_json)
                + checks.check_counts(label, json.loads(json_text), capture,
                                      consumed=consumed)
                + checks.check_ground_truth(label, scans, meta["campaigns"])))
        rounds += 1
    peak = host.peak_rss_mb()

    packets = capture["packets"]
    rates = {kind: statistics.median(packets / t for t in row["latencies_s"])
             for kind, row in ops.items()}
    return host.Outcome(
        setup_s=setup_s, peak_rss_mb=peak, timed_s=timed, cpu_s=cpu,
        rounds=rounds,
        ops=ops, unexpected=unexpected,
        figures={"batch_packets_per_s": rates["batch"],
                 "stream_packets_per_s": rates["stream"],
                 "hourly_stream_packets_per_s": rates["hourly"]},
    )
