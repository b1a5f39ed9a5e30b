"""Stub translation server for the HTTP translate step of mt_pipeline.

Speaks the biaseval HTTP contract: POST {"texts": [{"id", "text"}]} and
answer {"translations": [{"id", "text"}]}. Every request costs a fixed
service delay of DELAY_S. The batches of the seed's fault schedule
(``inputs.http_faults``, keyed by their first id) get a 503 on their first
attempt after each reset and succeed afterwards.

Control endpoints: GET /stats returns the counters, POST /reset clears them
and the fault state. Run as a separate process, with biaseval's ``src`` on
PYTHONPATH:

    python3 bench/stub.py --seed 1

It prints the bound port on its first stdout line.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from inputs import http_faults, stub_text

DELAY_S = 0.005


class StubState:
    """Fault schedule and counters shared by the handler threads."""

    def __init__(self, seed: int, delay: float, fail_first):
        self.seed = seed
        self.delay = delay
        self.fail_first = frozenset(fail_first)
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.failed_once: set[int] = set()
            self.batches: set[int] = set()
            self.requests = 0
            self.errors_5xx = 0
            self.busy_s = 0.0

    def answer(self, texts) -> tuple[int, dict]:
        """Status and body for one batch request, updating the counters."""
        start = time.perf_counter()
        time.sleep(self.delay)
        key = texts[0]["id"] if texts else 0
        with self.lock:
            self.requests += 1
            fail = key in self.fail_first and key not in self.failed_once
            if fail:
                self.failed_once.add(key)
                self.errors_5xx += 1
            else:
                self.batches.add(key)
        if fail:
            status, body = 503, {"error": "scheduled first-attempt failure"}
        else:
            status = 200
            body = {"translations": [{"id": item["id"], "text": stub_text(self.seed, item["id"])}
                                     for item in texts]}
        with self.lock:
            self.busy_s += time.perf_counter() - start
        return status, body

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "errors_5xx": self.errors_5xx,
                    "batches": len(self.batches), "busy_s": self.busy_s}


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Small responses would otherwise wait on the client's delayed ACK.
    disable_nagle_algorithm = True
    state: StubState

    def _send(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode()
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        # Headers and body in one write, so no segment waits for an ACK.
        self.wfile.write(head + payload)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {})
            return
        try:
            texts = json.loads(body)["texts"]
        except (KeyError, TypeError, ValueError):
            self._send(400, {"error": "expected {\"texts\": [...]}"})
            return
        self._send(*self.state.answer(texts))

    def log_message(self, format, *args):
        pass


def make_server(seed: int, delay: float, fail_first, port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundStubHandler", (StubHandler,),
                   {"state": StubState(seed, delay, fail_first)})
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = make_server(args.seed, DELAY_S, http_faults(args.seed))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
