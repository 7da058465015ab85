"""Correctness checks the benchmark applies to the program's outputs.

Every check returns a list of failure reasons (empty when it passes), so a
workload can count a failure against the operation that produced it and
say why.  The references are computed apart from the code under test: the
capture columns are re-read here with numpy from the documented ``.rtrace``
layout, the ground truth is the ``CampaignSpec`` list the simulator stores
in each cached capture, and report identity is against the program's own
batch ``analyze --report`` rendering of the same capture.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: ``.rtrace`` chunk layout: every chunk stores these columns, in this order.
RTRACE_MAGIC = b"RTRACE01"
RTRACE_COLUMNS = (
    ("time", "<f8"), ("src_ip", "<u4"), ("dst_ip", "<u4"),
    ("src_port", "<u2"), ("dst_port", "<u2"), ("ip_id", "<u2"),
    ("seq", "<u4"), ("ttl", "<u1"), ("window", "<u2"), ("flags", "<u1"),
)
#: Ports the paper drops from every statistic (ingress-blocked, §3.2).
EXCLUDED_PORTS = (23, 445)

#: The one failure the benchmark expects today: jobs run in worker
#: processes with their own capture cache, so the server's counters stay 0.
KNOWN_FAULT = "capture_cache.misses"


def read_capture(path: str) -> Dict[str, Any]:
    """Meta block plus the ``src_ip``/``dst_port`` columns of a capture."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:8] != RTRACE_MAGIC:
        raise ValueError(f"{path}: not an .rtrace capture")
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    offset = 12 + meta_len
    src: List[np.ndarray] = []
    port: List[np.ndarray] = []
    while offset < len(blob):
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if count == 0:
            break
        for name, dtype in RTRACE_COLUMNS:
            width = np.dtype(dtype).itemsize * count
            if name == "src_ip":
                src.append(np.frombuffer(blob, dtype, count, offset))
            elif name == "dst_port":
                port.append(np.frombuffer(blob, dtype, count, offset))
            offset += width
    src_ip = np.concatenate(src) if src else np.zeros(0, "<u4")
    dst_port = np.concatenate(port) if port else np.zeros(0, "<u2")
    study = ~np.isin(dst_port, EXCLUDED_PORTS)
    return {
        "meta": meta,
        "packets": int(src_ip.size),
        "study_packets": int(study.sum()),
        "study_sources": int(np.unique(src_ip[study]).size),
    }


def check_identity(label: str, text: str, json_text: str,
                   ref_text: str, ref_json: str) -> List[str]:
    """Text and JSON renderings must equal the batch reference byte for byte."""
    reasons = []
    if text != ref_text:
        reasons.append(f"{label}: text report differs from analyze --report")
    if json_text != ref_json:
        reasons.append(f"{label}: JSON report differs from analyze --report --json")
    return reasons


def check_counts(label: str, doc: Mapping[str, Any], capture: Mapping[str, Any],
                 consumed: Optional[int] = None) -> List[str]:
    """Packet totals and distinct sources against a numpy recount."""
    reasons = []
    if consumed is not None and consumed != capture["packets"]:
        reasons.append(f"{label}: consumed {consumed} packets, capture holds "
                       f"{capture['packets']}")
    if doc.get("packets") != capture["study_packets"]:
        reasons.append(f"{label}: report packets {doc.get('packets')} != "
                       f"recount {capture['study_packets']}")
    sources = doc.get("churn", {}).get("distinct_sources")
    if sources != capture["study_sources"]:
        reasons.append(f"{label}: report distinct sources {sources} != "
                       f"recount {capture['study_sources']}")
    return reasons


def check_ground_truth(label: str, scans: Any,
                       campaigns: Iterable[Mapping[str, Any]]) -> List[str]:
    """Scan count within 0.7-1.3x the planted shards; tools above 0.97.

    A source can take part in several campaigns (recurring scanners), so
    each scan is matched to its source's campaign that overlaps it most in
    time; a campaign ends after ``coverage * 2**32 * ports / rate`` seconds.
    """
    by_source: Dict[int, List[tuple]] = {}
    shards = 0
    for spec in campaigns:
        expected = spec["tool"]
        if expected == "zmap" and not spec["fingerprintable"]:
            expected = "unknown"
        end = spec["start"] + (spec["ipv4_coverage"] * 2.0 ** 32
                               * len(spec["ports"]) / spec["rate_pps"])
        for ip in spec["src_ips"]:
            by_source.setdefault(int(ip), []).append((spec["start"], end, expected))
        shards += len(spec["src_ips"])
    reasons = []
    found = len(scans)
    if not 0.7 * shards < found < 1.3 * shards:
        reasons.append(f"{label}: {found} scans recovered for {shards} "
                       f"planted shards")
    checked = correct = 0
    for ip, tool, start, end in zip(scans.src_ip.tolist(), scans.tool,
                                    scans.start.tolist(), scans.end.tolist()):
        candidates = by_source.get(ip)
        if candidates:
            best = max(candidates,
                       key=lambda c: min(end, c[1]) - max(start, c[0]))
            checked += 1
            correct += str(tool) == best[2]
    if checked == 0 or correct / checked <= 0.97:
        reasons.append(f"{label}: tool attribution {correct}/{checked}")
    return reasons


def tool_counts(tools: Sequence[Any]) -> Dict[str, int]:
    values, counts = np.unique(np.asarray([str(t) for t in tools]),
                               return_counts=True)
    return {str(v): int(c) for v, c in zip(values, counts)}


def check_fingerprints(label: str, fingerprints: Mapping[str, Mapping[str, Any]],
                       expected: Mapping[str, int]) -> List[str]:
    got = {tool: int(row["scans"]) for tool, row in fingerprints.items()}
    if got != dict(expected):
        return [f"{label}: tool fingerprints {got} != batch scans {dict(expected)}"]
    return []


def check_http_body(label: str, status: int, expect_status: int,
                    headers: Mapping[str, str], body: bytes) -> List[str]:
    """Status as expected and the body as long as Content-Length says."""
    reasons = []
    if status != expect_status:
        reasons.append(f"{label}: HTTP {status}, expected {expect_status}")
    length = headers.get("Content-Length")
    if length is None or int(length) != len(body):
        reasons.append(f"{label}: body of {len(body)} bytes, Content-Length "
                       f"{length}")
    return reasons


def check_stats(doc: Mapping[str, Any], configs: int, captures: int) -> List[str]:
    """Queue counters must account for every job exactly once."""
    counters = doc.get("counters", {})
    reasons = []
    if counters.get("executed") != configs:
        reasons.append(f"stats: executed {counters.get('executed')} != "
                       f"{configs} distinct configs")
    if (counters.get("submissions", 0) - counters.get("dedup_hits", 0)
            != counters.get("executed")):
        reasons.append("stats: submissions - dedup_hits != executed")
    misses = doc.get("capture_cache", {}).get("misses")
    if misses != captures:
        reasons.append(f"{KNOWN_FAULT}: {misses} != {captures} captures "
                       f"synthesised")
    return reasons


def known_fault_only(reasons: Sequence[str]) -> bool:
    return bool(reasons) and all(r.startswith(KNOWN_FAULT) for r in reasons)
