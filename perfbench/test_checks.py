"""The benchmark's correctness checks must catch what they claim to.

    python3 -m unittest perfbench/test_checks.py      (from the checkout root)

Each check is run once on a real capture, where it must pass, and once on a
damaged copy of the output -- a perturbed report, a relabelled scan table,
a truncated HTTP body -- where it must fail.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import loadgen  # noqa: E402
from repro.core import analyze_period  # noqa: E402
from repro.core.report import paper_report  # noqa: E402
from repro.exec.cache import CaptureCache  # noqa: E402
from repro.reporting import (paper_report_to_json, render_paper_report,  # noqa: E402
                             render_paper_report_json, render_report_doc)
from repro.simulation import TelescopeWorld  # noqa: E402
from repro.telescope.trace import read_trace  # noqa: E402


class ChecksCatchDamage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        TelescopeWorld(rng=3).simulate_year(
            2020, days=3, max_packets=60_000, min_scans=200,
            cache=CaptureCache(cls.tmp))
        (path,) = Path(cls.tmp).glob("*.rtrace")
        cls.capture = checks.read_capture(str(path))
        cls.analysis = analyze_period(read_trace(path)[0], year=2020, days=3)
        cls.report = paper_report(cls.analysis)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_report_passes_then_perturbed_report_fails(self):
        text = render_paper_report(self.report)
        doc = paper_report_to_json(self.report)
        doc_text = render_paper_report_json(self.report)
        self.assertEqual(checks.check_identity("r", text, doc_text, text, doc_text), [])
        self.assertEqual(checks.check_counts("r", doc, self.capture,
                                             consumed=self.capture["packets"]), [])
        doc["packets"] += 1
        doc["churn"]["distinct_sources"] -= 1
        self.assertEqual(len(checks.check_counts("r", doc, self.capture)), 2)
        self.assertTrue(checks.check_identity(
            "r", text.replace("study packets", "study  packets"),
            render_report_doc(doc), text, doc_text))
        self.assertTrue(checks.check_counts("r", doc, self.capture,
                                            consumed=self.capture["packets"] - 1))

    def test_scan_table_passes_then_relabelled_table_fails(self):
        scans = self.analysis.scans
        campaigns = self.capture["meta"]["campaigns"]
        self.assertEqual(checks.check_ground_truth("s", scans, campaigns), [])
        original = scans.tool
        scans.tool = np.roll(original, 1)
        try:
            reasons = checks.check_ground_truth("s", scans, campaigns)
        finally:
            scans.tool = original
        self.assertTrue(any("tool attribution" in r for r in reasons))

    def test_truncated_http_body_fails(self):
        body = b'{"ok": true}\n'
        headers = {"Content-Length": str(len(body))}
        self.assertEqual(checks.check_http_body("h", 200, 200, headers, body), [])
        self.assertTrue(checks.check_http_body("h", 200, 200, headers, body[:-3]))
        self.assertTrue(checks.check_http_body("h", 500, 200, headers, body))

    def test_truncated_http_response_is_a_failed_request(self):
        class Short(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib naming
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b"x" * 40)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Short)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            reply = loadgen.request(server.server_address[1], "GET", "/", "get",
                                    timeout=10.0)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        self.assertFalse(thread.is_alive())
        self.assertIsNotNone(reply.error)
        self.assertIn("IncompleteRead", reply.error)

    def test_stats_counters(self):
        doc = {"counters": {"submissions": 10, "dedup_hits": 6, "executed": 4},
               "capture_cache": {"misses": 0}}
        reasons = checks.check_stats(doc, 4, 4)
        self.assertTrue(checks.known_fault_only(reasons))
        doc["counters"]["executed"] = 5
        self.assertFalse(checks.known_fault_only(checks.check_stats(doc, 4, 4)))
        doc["counters"]["executed"] = 4
        doc["capture_cache"]["misses"] = 4
        self.assertEqual(checks.check_stats(doc, 4, 4), [])


if __name__ == "__main__":
    unittest.main()
