"""Loopback stub of the secondguess generation protocol, with injected latency.

Run as ``python3 perfbench/stub.py --seed S --median-ms M --sigma G``. It binds
an ephemeral port on 127.0.0.1, prints ``port <n>`` on its first stdout line
and serves until terminated:

- ``POST /v1/generate`` answers from a hash of ``(seed, prompt, image)`` after
  sleeping a lognormal latency drawn from the same hash. ``request_id`` is not
  on the wire, so answers depend only on what the client sends.
- ``GET /stats`` returns ``{"requests": n, "injected_s": total sleep}``.

Each response goes out in one write on a socket with TCP_NODELAY. Writing the
headers and the body separately lets Nagle's algorithm and the client's
delayed ACK add about 40 ms to every call, and the benchmark would then
measure the stub instead of the client.

The latency and answer functions are imported by the benchmark too, so the
traced run can subtract each request's injected latency from its client time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_NORMAL = statistics.NormalDist()
_WORDS = ("ball", "cup", "sign", "wheel", "window", "shadow", "tree", "light")
_ANSWERS = ("yes", "no", "yes", "no", "two", "red")


def _digest(seed: int, prompt: str, image) -> bytes:
    key = f"{seed}\0{prompt}\0{image or ''}".encode("utf-8")
    return hashlib.sha256(key).digest()


def injected_latency_s(seed: int, prompt: str, image, median_ms: float, sigma: float) -> float:
    """Lognormal latency for one request, capped at ten times the median."""
    u = (int.from_bytes(_digest(seed, prompt, image)[:8], "big") + 0.5) / 2.0**64
    factor = min(math.exp(sigma * _NORMAL.inv_cdf(u)), 10.0)
    return median_ms / 1000.0 * factor


def answer(seed: int, prompt: str, image) -> dict:
    """A valid protocol payload: decompose prompts get a question, others a
    short answer; 1-3 negative token log-probabilities."""
    d = _digest(seed, prompt, image)
    if prompt.endswith("Perception Question:") or prompt.endswith("### Response:"):
        text = f"is the {_WORDS[d[8] % len(_WORDS)]} visible?"
    else:
        text = _ANSWERS[d[8] % len(_ANSWERS)]
    logprobs = [-(d[10 + k] + 1) / 512.0 for k in range(1 + d[9] % 3)]
    return {"text": text, "token_logprobs": logprobs, "cumulative_logprob": sum(logprobs)}


def make_server(seed: int, median_ms: float, sigma: float) -> ThreadingHTTPServer:
    lock = threading.Lock()
    stats = {"requests": 0, "injected_s": 0.0}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _send(self, status: int, obj) -> None:
            body = json.dumps(obj).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path != "/v1/generate":
                self._send(404, {"error": "not found"})
                return
            req = json.loads(body)
            delay = injected_latency_s(seed, req["prompt"], req.get("image"), median_ms, sigma)
            payload = answer(seed, req["prompt"], req.get("image"))
            time.sleep(delay)
            with lock:
                stats["requests"] += 1
                stats["injected_s"] += delay
            self._send(200, payload)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with lock:
                snapshot = dict(stats)
            self._send(200, snapshot)

        def log_message(self, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--median-ms", type=float, required=True)
    parser.add_argument("--sigma", type=float, required=True)
    args = parser.parse_args(argv)
    server = make_server(args.seed, args.median_ms, args.sigma)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
