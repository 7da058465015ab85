"""End-to-end benchmark of the scan-characterisation pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-decade --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload capture-analysis --repeat 10

One invocation runs one workload in this (fresh) process and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it (``# perfbench {...}``) carries the per-op-kind counts,
failure reasons, the host probe and the timed-phase length.

``--repeat N`` is the steadiness mode: it runs the workload N times in
child processes with seeds ``seed, seed+1, ...``, prints each end-to-end
metric's median, quartiles and IQR/median, then one traced run with the
first seed and the tracing overhead (traced minus untraced timed time).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-decade", "capture-analysis", "serve-tenants")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args: argparse.Namespace) -> int:
    """Run the workload ``--repeat`` times and report each metric's spread."""
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.repeat):
        runs.append(_child(args, args.seed + i, trace=0))
        values = {name: round(m["value"], 4)
                  for name, m in runs[-1]["result"]["metrics"].items()}
        print(f"run {i + 1}/{args.repeat} seed {args.seed + i}: {values} "
              f"host.ref_loop_s {runs[-1]['summary']['host']['ref_loop_s']:.4f}",
              flush=True)
    print(f"\n{args.workload}: {args.repeat} runs, {args.seconds} s each")
    print(f"{'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr/med':>9}{'bound':>7}")
    rows = [(name, [r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]]
    rows += [(name, [r["summary"]["figures"][name] for r in runs])
             for name in runs[0]["summary"]["figures"]]
    for name, values in rows:
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<30}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.3f}{bounds.get(name, '-'):>7}")
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    probes = [r["summary"]["host"]["ref_loop_s"] for r in runs]
    print(f"host.ref_loop_s: median {statistics.median(probes):.4f} "
          f"min {min(probes):.4f} max {max(probes):.4f}")
    traced = _child(args, args.seed, trace=1)
    untraced = runs[0]["summary"]["timed_s"]
    print(f"traced run: timed {traced['summary']['timed_s']:.3f} s vs "
          f"untraced {untraced:.3f} s (same seed); tracing overhead "
          f"{traced['summary']['timed_s'] - untraced:+.3f} s")
    print("per-layer: " + json.dumps(traced["result"]["metrics"]))
    return 0


def _child(args: argparse.Namespace, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip().splitlines()
    summary = next(line for line in reversed(out)
                   if line.startswith("# perfbench "))
    return {"result": json.loads(out[-1]),
            "summary": json.loads(summary[len("# perfbench "):])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run N times, print spreads")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = int(_spec()["run_seconds"])
    if args.repeat > 0:
        return steadiness(args)

    sys.path.insert(0, str(ROOT / "src"))
    import host
    import layers

    probe_before = host.ref_loop()
    recorder = layers.instrument() if args.trace else None
    if args.workload == "cold-decade":
        import cold_decade as workload
    elif args.workload == "capture-analysis":
        import capture_analysis as workload
    else:
        import serve_tenants as workload
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run, same pid
    work.mkdir(parents=True)
    try:
        # Set-up time runs from process start but leaves out the host probe.
        ctx = host.Context(root=ROOT, work=work, seed=args.seed,
                           seconds=args.seconds, recorder=recorder,
                           started=T0 + probe_before)
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = host.ref_loop()

    outcome.figures["cpu_ms_per_op"] = outcome.cpu_ms_per_op
    ops = outcome.ops
    attempted = sum(k["attempted"] for k in ops.values())
    failed = sum(k["failed"] for k in ops.values())
    reasons = [r for k in ops.values() for r in k["reasons"]]
    correct = not outcome.unexpected
    summary = {
        "workload": args.workload, "seed": args.seed,
        "timed_s": outcome.timed_s, "rounds": outcome.rounds,
        "figures": outcome.figures,
        "ops": {kind: {k: v for k, v in row.items() if k != "latencies_s"}
                for kind, row in ops.items()},
        "unexpected_failures": outcome.unexpected[:10],
        "host": {"ref_loop_s": (probe_before + probe_after) / 2,
                 "before_s": probe_before, "after_s": probe_after},
    }
    if args.trace:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = traces / f"{args.workload}-seed{args.seed}"
        metrics = layers.per_layer(outcome, recorder, summary["host"]["ref_loop_s"],
                                   f"{stem}.trace.json", f"{stem}.layers.txt")
        summary["trace_files"] = [f"{stem}.trace.json", f"{stem}.layers.txt"]
        print(Path(f"{stem}.layers.txt").read_text(), end="")
    else:
        metrics = dict(outcome.metrics)
    units = {m["name"]: m["unit"] for m in
             _spec()["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    if reasons:
        print(f"{failed} failed operation(s), first: {reasons[0]}",
              file=sys.stderr)
    print("# perfbench " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
