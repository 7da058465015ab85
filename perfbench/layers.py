"""Per-layer instrumentation for the traced run.

:func:`instrument` wraps the public entry points of each ``repro`` layer
with spans (see :mod:`spans`); :func:`per_layer` reduces the spans and
counters of one run to the ``per_layer`` metrics of ``BENCHMARK.json``,
writes the Chrome trace and the self-time table.  The same wrappers run
inside the server process (``serve_launcher.py``).

Time metrics (``*_s``) are self time, and every time or count metric that
accrues during the timed phase is divided by the run's rounds (a decade, a
round of capture passes, or one client script round), so runs of different
length compare.  Byte high-water marks and the server's ``/stats`` counters
are reported as they are.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Any, Dict, List

import spans

#: per-layer metric -> the span whose self time it sums
SELF_TIME = {
    "simulation.simulate_s": "simulation.simulate_year",
    "simulation.synthesize_campaign_s": "simulation.synthesize_campaign",
    "simulation.observe_s": "simulation.observe",
    "exec.key_for_s": "exec.key_for",
    "exec.store_s": "exec.store",
    "telescope.read_s": "telescope.read",
    "core.identify_s": "core.identify",
    "core.paper_report_s": "core.paper_report",
    "enrichment.classifier_build_s": "enrichment.classifier_build",
    "enrichment.enrich_s": "enrichment.enrich",
    "stream.report_s": "stream.report",
    "stream.identify_consume_s": "stream.identify_consume",
    "stream.identify_finalize_s": "stream.identify_finalize",
    "stream.analyses_consume_s": "stream.analyses_consume",
    "stream.checkpoint_save_s": "stream.checkpoint_save",
    "reporting.render_text_s": "reporting.render_text",
    "reporting.render_json_s": "reporting.render_json",
    "serve.queue_submit_s": "serve.queue_submit",
    "serve.queue_stats_s": "serve.queue_stats",
    "serve.scenario_put_s": "serve.scenario_put",
    "serve.cache_derived_s": "serve.cache_derived",
}
CALLS = {"exec.key_for_calls": "exec.key_for"}
#: counters summed over the timed phase, per round
COUNTERS = ("simulation.campaigns", "simulation.packets", "exec.capture_bytes",
            "exec.cache_hits", "exec.cache_misses", "core.scans",
            "stream.windows", "stream.checkpoint_bytes",
            "reporting.report_bytes")
#: high-water marks, as they are
MAXIMA = ("stream.peak_open_session_bytes", "stream.analysis_state_bytes")
#: from the server's spans joined with the client's latencies
SERVER_FIGURES = ("serve.app_report_warm_s", "serve.app_report_rederive_s",
                  "serve.report_warm_calls", "serve.report_rederive_calls",
                  "serve.http_overhead_ms")
#: measured by the workloads themselves, 0 where a workload has none
FIGURES = ("serve.submissions", "serve.dedup_hits", "serve.executed",
           "serve.cold_job_s", "serve.report_p99_ms", "cold_report_s",
           "batch_packets_per_s", "stream_packets_per_s",
           "hourly_stream_packets_per_s", "requests_per_s", "report_p50_ms",
           "report_p90_ms", "stats_p50_ms", "cpu_ms_per_op")


def instrument() -> spans.Recorder:
    """Wrap each layer's entry points; returns the (inactive) recorder."""
    from http.server import BaseHTTPRequestHandler

    import repro.cli  # noqa: F401 - loads every by-name import to patch
    import repro.core.campaigns as campaigns
    import repro.core.pipeline as pipeline
    import repro.core.report as report
    import repro.enrichment.classify as classify
    import repro.enrichment.registry as registry
    import repro.exec.cache as cache
    import repro.reporting.tables as tables
    import repro.serve.api as api
    import repro.serve.queue as queue
    import repro.serve.scenario as scenario
    import repro.simulation.campaigns as sim_campaigns
    import repro.simulation.world as world
    import repro.stream.analyses as analyses
    import repro.stream.checkpoint as checkpoint
    import repro.stream.incremental as incremental
    import repro.stream.report as stream_report
    import repro.stream.source as source
    import repro.telescope.sensor as sensor
    import repro.telescope.trace as trace

    rec = spans.Recorder()
    fn, meth = spans.wrap_function, spans.wrap_method

    def simulated(result, _a, _k):
        if not result.cache_hit:
            rec.count("simulation.campaigns", len(result.campaigns))
            rec.count("simulation.packets", len(result.batch))

    def loaded(result, _a, _k):
        rec.count("exec.cache_misses" if result is None else "exec.cache_hits")

    def file_bytes(counter):
        def after(path, _a, _k):
            rec.count(counter, os.path.getsize(path))
        return after

    def rendered(text, _a, _k):
        rec.count("reporting.report_bytes", len(text))

    def streamed(result, _a, _k):
        rec.count("stream.windows", result.stats.windows)
        rec.high_water("stream.peak_open_session_bytes",
                       result.stats.peak_open_session_bytes)
        rec.high_water("stream.analysis_state_bytes",
                       result.stats.analysis_state_bytes)

    meth(rec, world.TelescopeWorld, "simulate_year", "simulation.simulate_year",
         simulated)
    fn(rec, sim_campaigns, "synthesize_campaign", "simulation.synthesize_campaign")
    meth(rec, sensor.Telescope, "observe", "simulation.observe")
    meth(rec, cache.CaptureCache, "key_for", "exec.key_for")
    meth(rec, cache.CaptureCache, "store", "exec.store",
         file_bytes("exec.capture_bytes"))
    meth(rec, cache.CaptureCache, "load", "exec.load", loaded)
    fn(rec, trace, "read_trace", "telescope.read")
    spans.wrap_generator_method(rec, source.TraceStreamSource, "windows",
                                "telescope.read")
    fn(rec, campaigns, "identify_scans", "core.identify",
       lambda scans, _a, _k: rec.count("core.scans", len(scans)))
    fn(rec, pipeline, "analyze_period", "core.analyze_period")
    fn(rec, report, "paper_report", "core.paper_report")
    fn(rec, registry, "build_default_registry", "enrichment.classifier_build")
    meth(rec, classify.ScannerClassifier, "__init__", "enrichment.classifier_build")
    meth(rec, campaigns.ScanTable, "enrich", "enrichment.enrich")
    fn(rec, stream_report, "stream_report", "stream.report", streamed)
    meth(rec, incremental.IncrementalScanIdentifier, "consume",
         "stream.identify_consume")
    meth(rec, incremental.IncrementalScanIdentifier, "finalize",
         "stream.identify_finalize")
    meth(rec, analyses.AnalysisSuite, "consume", "stream.analyses_consume")
    meth(rec, analyses.AnalysisSuite, "consume_scans", "stream.analyses_finalize")
    meth(rec, analyses.AnalysisSuite, "finalize", "stream.analyses_finalize")
    meth(rec, checkpoint.CheckpointStore, "save", "stream.checkpoint_save",
         file_bytes("stream.checkpoint_bytes"))
    fn(rec, tables, "render_paper_report", "reporting.render_text", rendered)
    fn(rec, tables, "paper_report_to_json", "reporting.render_json")
    fn(rec, tables, "render_report_doc", "reporting.render_json", rendered)
    meth(rec, api.ServeApp, "scenario_report", "serve.app_report")
    meth(rec, api.ServeApp, "stats", "serve.app_stats")
    meth(rec, api.ServeApp, "submit_job", "serve.app_submit")
    meth(rec, api.ServeApp, "put_scenario", "serve.app_put")
    meth(rec, queue.JobQueue, "submit", "serve.queue_submit")
    meth(rec, queue.JobQueue, "stats", "serve.queue_stats")
    meth(rec, scenario.ScenarioStore, "put", "serve.scenario_put")
    meth(rec, scenario.ScenarioStore, "cache_derived", "serve.cache_derived")

    # One span per HTTP request, tagged with the client's operation id.
    handle = BaseHTTPRequestHandler.handle_one_request
    parse = BaseHTTPRequestHandler.parse_request

    def handle_one_request(self):
        rec.set_op(0)
        with rec.span("serve.http_request"):
            handle(self)

    def parse_request(self):
        ok = parse(self)
        if ok:
            rec.set_op(int(self.headers.get("X-Perfbench-Op") or 0))
        return ok

    BaseHTTPRequestHandler.handle_one_request = handle_one_request
    BaseHTTPRequestHandler.parse_request = parse_request
    return rec


def _server_figures(remote: Dict[str, Any], client_latency: Dict[int, float]
                    ) -> Dict[str, float]:
    """Warm/re-derive split and HTTP overhead from the server's spans."""
    by_id = {s[0]: s for s in remote["spans"]}
    submitted = {s[1] for s in remote["spans"] if s[3] == "serve.queue_submit"}
    warm: List[float] = []
    rederive: List[float] = []
    app_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, op, name, start, end, _tid in remote["spans"]:
        if name == "serve.app_report":
            (rederive if span_id in submitted else warm).append(end - start)
        if parent and by_id.get(parent, (0, 0, 0, ""))[3] == "serve.http_request":
            app_time[op] += end - start
    overhead = [client_latency[op] - app_time.get(op, 0.0)
                for op in client_latency]
    return {
        "serve.app_report_warm_s": sum(warm),
        "serve.app_report_rederive_s": sum(rederive),
        "serve.report_warm_calls": float(len(warm)),
        "serve.report_rederive_calls": float(len(rederive)),
        "serve.http_overhead_ms": (1000.0 * statistics.mean(overhead)
                                   if overhead else 0.0),
    }


def per_layer(outcome, rec: spans.Recorder, ref_loop_s: float,
              trace_path: str, table_path: str) -> Dict[str, float]:
    """Reduce the run's spans to the per-layer metrics; write trace + table."""
    counters: Dict[str, float] = defaultdict(float, rec.counters)
    maxima: Dict[str, float] = defaultdict(float, rec.maxima)
    processes = [(os.getpid(), "perfbench", list(rec.spans))]
    for remote in outcome.remote:
        for name, value in remote["counters"].items():
            counters[name] += value
        for name, value in remote["maxima"].items():
            maxima[name] = max(maxima[name], value)
        processes.append((remote["pid"], "repro-scan serve", remote["spans"]))
    # Span ids are per process, so self time is reduced per process.
    table: Dict[str, Dict[str, float]] = {}
    for _pid, _label, process_spans in processes:
        for name, row in spans.self_times(process_spans).items():
            merged = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                merged[key] += value
    rounds = max(1, outcome.rounds)
    metrics: Dict[str, float] = {}
    for metric, name in SELF_TIME.items():
        metrics[metric] = table.get(name, {}).get("self_s", 0.0) / rounds
    for metric, name in CALLS.items():
        metrics[metric] = table.get(name, {}).get("calls", 0) / rounds
    for name in COUNTERS:
        metrics[name] = counters[name] / rounds
    for name in MAXIMA:
        metrics[name] = maxima[name]
    for name in SERVER_FIGURES + FIGURES:
        metrics[name] = 0.0
    for remote in outcome.remote:
        for name, value in _server_figures(remote, outcome.client_latency).items():
            metrics[name] = value if name.endswith("_ms") else value / rounds
    metrics.update(outcome.layer_values)
    metrics.update(outcome.figures)
    metrics["host.ref_loop_s"] = ref_loop_s

    spans.write_json(trace_path, spans.chrome_trace(processes))
    lines = [f"{'span':<36}{'calls':>9}{'total_s':>12}{'self_s':>12}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<36}{row['calls']:>9}{row['total_s']:>12.4f}"
                     f"{row['self_s']:>12.4f}")
    lines.append(f"(rounds: {outcome.rounds}; trace: {trace_path})")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return metrics
