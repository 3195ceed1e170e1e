"""Fake annotation backend for the cold-http workload, run as its own process.

    python3 perfbench/stub_backend.py --delay-ms 2 --replications 4

It listens on 127.0.0.1 (a free port), prints the port on its first stdout
line and serves until terminated:

* ``POST /`` answers ``{"output_text": "<scores>"}`` where ``<scores>`` is a
  valid JSON object with one integer per ``threadtone.dimensions`` dimension,
  within the default ``AnnotationScale`` (the package in ``src/`` next to
  this directory is imported for both). The scores are a
  hash of the request body and of how many times that body was seen before,
  modulo the replication count. A pair's replications are requested one
  after the other by one client thread, so this numbers them 0..N-1 in order
  and every replication gets its own, reproducible score.
* ``GET /stats`` answers ``{"requests": <POSTs served so far>}``. Requests
  are counted here, under a lock, rather than through the client's counter.

Each POST sleeps a fixed delay, then sends the status line, headers and body
in one write on a TCP_NODELAY socket: a response split over two writes waits
on Nagle plus delayed ACK (tens of ms) and would measure the stub instead of
the client. Connections are HTTP/1.1 keep-alive with one thread each, so the
thread count equals the client's connection count (its ``--concurrency``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from threadtone.dimensions import DIMENSIONS, AnnotationScale  # noqa: E402


class StubState:
    def __init__(self, delay_s: float, replications: int):
        self.delay_s = delay_s
        self.replications = replications
        self.scale = AnnotationScale()
        self.lock = threading.Lock()
        self.requests = 0
        self.seen: dict[bytes, int] = {}

    def scores(self, body: bytes) -> dict[str, int]:
        digest = hashlib.sha256(body).digest()
        with self.lock:
            self.requests += 1
            occurrence = self.seen.get(digest, 0)
            self.seen[digest] = occurrence + 1
        replication = occurrence % self.replications
        h = hashlib.sha256(digest + replication.to_bytes(2, "big")).digest()
        return {d.name: self.scale.min + h[i] % self.scale.n_points
                for i, d in enumerate(DIMENSIONS)}


def make_handler(state: StubState) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _send(self, obj: dict) -> None:
            payload = json.dumps(obj).encode("utf-8")
            head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + payload)

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            scores = state.scores(body)
            time.sleep(state.delay_s)
            self._send({"output_text": json.dumps(scores)})

        def do_GET(self) -> None:
            with state.lock:
                served = state.requests
            self._send({"requests": served})

        def log_message(self, format: str, *args) -> None:
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--replications", type=int, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.delay_ms / 1000.0, args.replications)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
