"""Local chat-completions stand-in for the endpoint workload.

Serves ``POST /chat/completions`` over HTTP/1.1 keep-alive on 127.0.0.1,
answering each prompt from a table keyed by the sha256 of its user turn
after a fixed service delay. ``GET /stats`` returns the connections that
carried at least one completion, the completions served, the replies
served per class, the prompts not found in the table, and the seconds
actually slept (a loaded host wakes sleepers late). It does not
import the program under test: the table is written by the benchmark.

    python3 perfbench/stub_server.py <table.json>

prints ``PORT <n>`` on stdout once it listens, and serves until SIGTERM.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubState:
    """Reply table, service delay and the counters the oracle reads."""

    def __init__(self, replies: dict[str, list[str]], delay_s: float):
        self.replies = replies
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.unknown = 0
        self.slept_s = 0.0
        self.classes: Counter = Counter()

    def stats(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "unknown": self.unknown,
                "slept_s": self.slept_s,
                "classes": dict(self.classes),
            }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.served = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - signature of the base class
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        self._send(200, self.server.state.stats())

    def do_POST(self) -> None:
        state: StubState = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path.rstrip("/") != "/chat/completions":
            self._send(404, {"error": "not found"})
            return
        try:
            messages = json.loads(body)["messages"]
            user = next(m["content"] for m in messages if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration):
            self._send(400, {"error": "malformed request"})
            return
        entry = state.replies.get(hashlib.sha256(user.encode("utf-8")).hexdigest())
        start = time.perf_counter()
        time.sleep(state.delay_s)
        slept = time.perf_counter() - start
        with state.lock:
            state.slept_s += slept
            if not self.served:
                self.served = True
                state.connections += 1
            if entry is None:
                state.unknown += 1
            else:
                state.requests += 1
                state.classes[entry[0]] += 1
        if entry is None:
            self._send(404, {"error": "prompt not in the reply table"})
            return
        self._send(200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": entry[1]}}]})


def make_server(table: dict, port: int = 0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", port), StubHandler)
    server.daemon_threads = True
    server.state = StubState(table["replies"], table["delay_ms"] / 1000.0)
    return server


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        table = json.load(fh)
    server = make_server(table)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
