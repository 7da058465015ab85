"""Closed-loop HTTP load for ``repro-scan serve``.

Each client is one thread with one connection at a time (the server speaks
HTTP/1.0, so every request opens its own).  A client sends its next request
only after the previous response's body has been read in full, and times
each request from send to the end of the body.  Clients run seeded scripts
made of whole rounds, so every run attempts the same mix of operations.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

#: One round per client: 4 config flips (a PUT, then a report GET that
#: re-derives), 26 warm report GETs, 4 /stats, 2 POST /jobs of finished
#: jobs -- 40 requests, 30 of them report GETs, half JSON and half text.
FLIPS, WARM_GETS, STATS, POSTS = 4, 26, 4, 2
ROUND_REQUESTS = FLIPS * 2 + WARM_GETS + STATS + POSTS

_op_ids = itertools.count(1)


class Response:
    __slots__ = ("op", "kind", "status", "headers", "body", "latency_s",
                 "expect", "error")

    def __init__(self, op: int, kind: str, expect: Any) -> None:
        self.op, self.kind, self.expect = op, kind, expect
        self.status, self.headers, self.body = 0, {}, b""
        self.latency_s = 0.0
        self.error: Optional[str] = None


def request(port: int, method: str, path: str, kind: str, expect: Any = None,
            body: Optional[Dict[str, Any]] = None, timeout: float = 120.0,
            recorder: Any = None) -> Response:
    """One request, timed from send to the end of the body."""
    op = next(_op_ids)
    out = Response(op, kind, expect)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"X-Perfbench-Op": str(op)}
    if payload is not None:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if recorder is not None:
            with recorder.op(op), recorder.span(f"client.{kind}"):
                _exchange(conn, out, method, path, payload, headers)
        else:
            _exchange(conn, out, method, path, payload, headers)
    except (OSError, http.client.HTTPException) as exc:
        out.error = f"{kind}: {type(exc).__name__}: {exc}"
    finally:
        conn.close()
    return out


def _exchange(conn, out: Response, method, path, payload, headers) -> None:
    start = time.perf_counter()
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    body = resp.read()
    out.latency_s = time.perf_counter() - start
    out.status, out.headers, out.body = resp.status, dict(resp.getheaders()), body


def wait_ready(port: int, timeout: float = 60.0) -> None:
    """Poll ``/healthz`` until the server answers 200."""
    deadline = time.monotonic() + timeout
    while True:
        reply = request(port, "GET", "/healthz", "healthz", timeout=5.0)
        if reply.error is None and reply.status == 200:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready after {timeout} s: "
                               f"{reply.error or reply.status}")
        time.sleep(0.05)


class Client:
    """One closed-loop client owning a fixed set of scenarios.

    A scenario is ``(tenant, name, [config a, config b], current index)``;
    only its owner flips it, so the client always knows which config (and
    so which report) every GET must return.
    """

    def __init__(self, port: int, seed: int, scenarios: List[list],
                 configs: List[Dict[str, Any]], recorder: Any = None) -> None:
        self.port = port
        self.rng = random.Random(seed)
        self.scenarios = scenarios
        self.configs = configs
        self.recorder = recorder
        self.responses: List[Response] = []
        self.elapsed = 0.0

    def _script(self) -> Tuple[List[Tuple], List[str]]:
        units: List[Tuple] = [("flip",)] * FLIPS + [("get",)] * WARM_GETS \
            + [("stats",)] * STATS + [("post",)] * POSTS
        self.rng.shuffle(units)
        formats = ["json", "text"] * ((FLIPS + WARM_GETS) // 2)
        self.rng.shuffle(formats)
        return units, formats

    def _report(self, scenario: list, fmt: str) -> Response:
        tenant, name, pair, current = scenario
        return request(self.port, "GET",
                       f"/scenarios/{tenant}/{name}/report?format={fmt}&wait=300",
                       f"report-{fmt}", expect=(pair[current], fmt),
                       recorder=self.recorder)

    def round(self) -> List[Response]:
        """Run one whole round; returns its responses in order."""
        units, formats = self._script()
        out: List[Response] = []
        for (unit,) in units:
            if unit == "flip":
                scenario = self.rng.choice(self.scenarios)
                scenario[3] = 1 - scenario[3]
                tenant, name, pair, current = scenario
                out.append(request(
                    self.port, "PUT", f"/scenarios/{tenant}/{name}", "put",
                    expect=pair[current], body=self.configs[pair[current]],
                    recorder=self.recorder))
                out.append(self._report(scenario, formats.pop()))
            elif unit == "get":
                out.append(self._report(self.rng.choice(self.scenarios),
                                        formats.pop()))
            elif unit == "stats":
                out.append(request(self.port, "GET", "/stats", "stats",
                                   recorder=self.recorder))
            else:
                config = self.rng.randrange(len(self.configs))
                out.append(request(
                    self.port, "POST", "/jobs", "post", expect=config,
                    body=dict(self.configs[config], kind="stream-report"),
                    recorder=self.recorder))
        return out

    def run(self, seconds: float, barrier: Any) -> None:
        """Whole rounds until ``seconds`` have passed since the barrier."""
        barrier.wait()
        start = time.perf_counter()
        while True:
            self.responses.extend(self.round())
            self.elapsed = time.perf_counter() - start
            if self.elapsed >= seconds:
                return
