"""Workload ``serve-tenants``: warm multi-tenant traffic on ``repro-scan serve``.

The server runs in its own process (``serve_launcher.py``, one job worker)
and holds 8 tenants x 2 scenarios over 4 capture configs (7 days, 100k
packets).  Every scenario flips between two configs, and every config is
computed during set-up, so the timed phase runs no simulation and no
identification: warm report GETs, re-derivations through a dedup hit after
a config flip, ``/stats`` and POSTs of finished jobs.  The capture cache
holds a few hundred entries (hard links of the four captures), as a
long-running service accumulates, because ``/stats`` walks it.

Load: 2 closed-loop clients (see :mod:`loadgen`), each owning 4 tenants,
pinned to one core while the server is pinned to another.  An operation is
one request of the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

import checks
import host
import loadgen

TENANTS, PER_TENANT, CACHE_ENTRIES = 8, 2, 300
#: The four capture configs differ in year (the seed picks the world);
#: a fixed spread of years keeps the cold jobs' cost the same every run.
YEARS = (2015, 2018, 2021, 2024)
CONFIGS = len(YEARS)
KINDS = ("report-json", "report-text", "stats", "put", "post")


def _start_server(ctx: host.Context, trace_out: str) -> tuple:
    log_path = ctx.work / "server.log"
    cmd = [sys.executable, str(ctx.root / "perfbench" / "serve_launcher.py")]
    if ctx.recorder is not None:
        cmd += ["--trace-out", trace_out]
    cmd += ["--", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "--state-dir", str(ctx.work / "state"),
            "--cache-dir", str(ctx.work / "captures")]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    log = open(log_path, "w")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=log)
    log.close()
    deadline = time.monotonic() + 120
    while True:
        found = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                          log_path.read_text())
        if found:
            return proc, int(found.group(1))
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("server did not start:\n" + log_path.read_text())
        time.sleep(0.02)


def _ok(reply: loadgen.Response, status: int = 200) -> loadgen.Response:
    if reply.error is not None or reply.status != status:
        raise RuntimeError(f"set-up request {reply.kind} failed: "
                           f"{reply.error or reply.status} {reply.body[:200]!r}")
    return reply


def _setup(ctx: host.Context, port: int, configs, scenarios) -> Dict[str, Any]:
    """Scenarios, cold jobs, every derivation, the crowded cache directory."""
    for tenant, name, pair, current in scenarios:
        _ok(loadgen.request(port, "PUT", f"/scenarios/{tenant}/{name}", "put",
                            body=configs[pair[current]]))
    cold = []
    for config in range(CONFIGS):
        tenant, name, _pair, _ = next(s for s in scenarios if s[2][0] == config)
        cold.append(_ok(loadgen.request(
            port, "GET", f"/scenarios/{tenant}/{name}/report?wait=600",
            "report-json")).latency_s)
    for scenario in scenarios * 2:  # derive both configs of every scenario
        tenant, name, pair, current = scenario
        _ok(loadgen.request(port, "GET",
                            f"/scenarios/{tenant}/{name}/report?wait=600",
                            "report-json"))
        scenario[3] = 1 - current
        _ok(loadgen.request(port, "PUT", f"/scenarios/{tenant}/{name}", "put",
                            body=configs[pair[scenario[3]]]))
    paths = []
    for config in configs:
        reply = _ok(loadgen.request(port, "POST", "/jobs", "post",
                                    body=dict(config, kind="stream-report")))
        paths.append(json.loads(reply.body)["job"]["result"]["capture"]["path"])
    for i in range(CACHE_ENTRIES - CONFIGS):
        name = hashlib.blake2b(f"{ctx.seed}-{i}".encode(), digest_size=16)
        os.link(paths[i % CONFIGS],
                ctx.work / "captures" / f"{name.hexdigest()}.rtrace")
    return {"cold": cold, "paths": paths}


def _references(paths: List[str]) -> List[Dict[str, Any]]:
    """``analyze --report`` (text and JSON) of each config's capture, the
    numpy recount and the ground-truth check of its batch scans.

    Runs after the timed phase; the analysis imports wait until then, so
    they do not count as this client's set-up.
    """
    import contextlib
    import io

    from repro.cli import main as repro_scan
    from repro.core import analyze_period
    from repro.telescope.trace import read_trace

    refs = []
    for path in paths:
        rendered = {}
        for fmt, flags in (("text", []), ("json", ["--json"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if repro_scan(["analyze", path, "--report", *flags]) != 0:
                    raise RuntimeError(f"analyze --report failed on {path}")
            rendered[fmt] = out.getvalue()
        capture = checks.read_capture(path)
        meta = capture["meta"]
        analysis = analyze_period(read_trace(path)[0], year=meta["year"],
                                  days=meta["days"])
        label = f"capture {meta['year']}"
        refs.append({
            "text": rendered["text"], "json": rendered["json"],
            "digest": {fmt: hashlib.blake2b(body.encode()).digest()
                       for fmt, body in rendered.items()},
            "facts": checks.check_counts(label, json.loads(rendered["json"]),
                                         capture)
            + checks.check_ground_truth(label, analysis.scans, meta["campaigns"]),
        })
    return refs


def _check(reply: loadgen.Response, refs, configs) -> List[str]:
    label = f"{reply.kind} op {reply.op}"
    if reply.error is not None:
        return [reply.error]
    reasons = checks.check_http_body(label, reply.status, 200, reply.headers,
                                     reply.body)
    if reasons:
        return reasons
    if reply.kind.startswith("report-"):
        config, fmt = reply.expect
        if hashlib.blake2b(reply.body).digest() != refs[config]["digest"][fmt]:
            return [f"{label}: body differs from analyze --report ({fmt}) "
                    f"of config {config}"]
        return refs[config]["facts"]
    doc = json.loads(reply.body)
    if reply.kind == "stats":
        return checks.check_stats(doc, CONFIGS, CONFIGS)
    if reply.kind == "put":
        spec = doc["scenario"]["spec"]
        want = dict(configs[reply.expect], kind="stream-report")
        return [] if spec == want else [f"{label}: scenario spec {spec}"]
    job = doc["job"]
    if job["status"] != "done" or \
            job["result"]["report_text"] + "\n" != refs[reply.expect]["text"]:
        return [f"{label}: job {job['status']}, report differs from "
                f"analyze --report"]
    return []


def run(ctx: host.Context) -> host.Outcome:
    configs = [{"year": year, "days": 7, "max_packets": 100_000,
                "min_scans": 600, "seed": ctx.seed} for year in YEARS]
    scenarios = [[f"tenant{t}", f"scenario{n}",
                  [(PER_TENANT * t + n) % CONFIGS,
                   (PER_TENANT * t + n + 1) % CONFIGS], 0]
                 for t in range(TENANTS) for n in range(PER_TENANT)]
    trace_out = str(ctx.work / "server-spans.json")
    proc, port = _start_server(ctx, trace_out)
    # Server on one core, clients on the other: unpinned, the request rate
    # of one seed moved by up to 40% from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(proc.pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0]})
    try:
        loadgen.wait_ready(port)
        made = _setup(ctx, port, configs, scenarios)
        half = len(scenarios) // 2
        clients = [loadgen.Client(port, ctx.seed * 1000 + i,
                                  scenarios[i * half:(i + 1) * half], configs,
                                  ctx.recorder) for i in range(2)]

        def both(seconds: float) -> float:
            barrier = threading.Barrier(len(clients))
            threads = [threading.Thread(target=c.run, args=(seconds, barrier))
                       for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return max(c.elapsed for c in clients)

        warmups = []
        warm_started = time.perf_counter()
        for _ in range(3):
            warmups.append(both(0.0))
        setup_s = host.setup_time(ctx, warm_started, warmups)
        for client in clients:
            client.responses = []
        if ctx.recorder is not None:
            proc.send_signal(signal.SIGUSR1)
            ctx.recorder.active = True
        cpu = host.process_cpu_s(proc.pid)
        timed_s = both(ctx.seconds)
        cpu = host.process_cpu_s(proc.pid) - cpu
        if ctx.recorder is not None:
            ctx.recorder.active = False
        final = json.loads(_ok(loadgen.request(port, "GET", "/stats",
                                               "stats")).body)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            status = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            status = proc.wait()

    ops = host.new_ops(*KINDS)
    unexpected: List[str] = []
    if status != 0:
        unexpected.append(f"server exited {status} on SIGTERM")
    refs = _references(made["paths"])
    replies = [r for c in clients for r in c.responses]
    for reply in replies:
        reasons = _check(reply, refs, configs)
        host.record(ops, unexpected, reply.kind, reply.latency_s, reasons,
                    known=checks.known_fault_only(reasons))
    reports = [r.latency_s * 1000 for r in replies if r.kind.startswith("report")]
    stats_ms = [r.latency_s * 1000 for r in replies if r.kind == "stats"]
    counters = final["counters"]
    outcome = host.Outcome(
        setup_s=setup_s, peak_rss_mb=final["peak_rss_bytes"] / 2 ** 20,
        timed_s=timed_s, cpu_s=cpu, rounds=sum(len(c.responses) for c in clients)
        // loadgen.ROUND_REQUESTS, ops=ops, unexpected=unexpected,
        figures={"requests_per_s": len(replies) / timed_s,
                 "report_p50_ms": statistics.median(reports),
                 "report_p90_ms": host.percentile(reports, 90),
                 "stats_p50_ms": statistics.median(stats_ms)},
        layer_values={"serve.report_p99_ms": host.percentile(reports, 99),
                      "serve.cold_job_s": statistics.mean(made["cold"]),
                      "serve.submissions": counters["submissions"],
                      "serve.dedup_hits": counters["dedup_hits"],
                      "serve.executed": counters["executed"]},
        client_latency={r.op: r.latency_s for r in replies},
    )
    if ctx.recorder is not None and os.path.exists(trace_out):
        with open(trace_out, encoding="utf-8") as handle:
            outcome.remote.append(json.load(handle))
    return outcome
