"""Loopback OpenAI-shaped chat-completions stub for the `train_http` workload.

    python3 perfbench/stub.py --seed N

Binds 127.0.0.1 on a free port and prints `PORT <n>` once it listens. Every
chat request is held for `inputs.STUB_LATENCY_MS`. The first attempt of a
hash-chosen share of requests is answered with 503; everything else gets the scripted
model's reply with whitespace-word token usage, as the in-process scripted
mock reports it. Each response goes out in a single write, so that delayed
ACKs on kept-alive connections cannot add latency.

Control endpoints: `POST /_reset` forgets the fault history, the request log
and the scripted model's state; `GET /_log` returns the number of chat
requests, the [start, end] monotonic-clock interval of each answered one, and
the stub's CPU seconds since the reset.
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

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from workloads import system_prompts  # noqa: E402


class StubState:
    def __init__(self, seed: int):
        self.seed = seed
        self.prompts = system_prompts()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.model = inputs.MockModel(self.seed, self.prompts,
                                          steps=inputs.TRAIN_HTTP["steps"])
            self.faulted: set[str] = set()
            self.requests = 0
            self.answered: list[tuple[int, int]] = []
            self.cpu_start = time.process_time()

    def should_fail(self, key: str) -> bool:
        """True on the first attempt of a faulted request."""
        with self.lock:
            self.requests += 1
            if key in self.faulted or not inputs.is_faulted(self.seed, "503\x00" + key,
                                                            inputs.FAULT_503_PER_MILLE):
                return False
            self.faulted.add(key)
            return True


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, format, *args):
            pass

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (f"HTTP/1.1 {code} {self.responses[code][0]}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path != "/_log":
                return self._send(404, {"error": "not found"})
            with state.lock:
                payload = {"requests": state.requests, "answered": state.answered,
                           "cpu_s": time.process_time() - state.cpu_start}
            self._send(200, payload)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_reset":
                state.reset()
                return self._send(200, {"ok": True})
            if not self.path.endswith("/chat/completions"):
                return self._send(404, {"error": "not found"})
            start = time.monotonic_ns()
            body = json.loads(raw)
            messages = [(m["role"], m["content"]) for m in body["messages"]]
            key = hashlib.sha256(json.dumps([body["model"], messages]).encode()).hexdigest()
            fail = state.should_fail(key)
            time.sleep(inputs.STUB_LATENCY_MS / 1000.0)
            if fail:
                return self._send(503, {"error": {"message": "injected overload"}})
            content = state.model.reply(body["model"], messages)
            # Whitespace words, as the in-process scripted mock counts tokens.
            prompt_tokens = sum(len(c.split()) for _, c in messages)
            completion_tokens = len(content.split())
            self._send(200, {
                "id": "chatcmpl-" + key[:16],
                "object": "chat.completion",
                "model": body["model"],
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": content}}],
                "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens,
                          "total_tokens": prompt_tokens + completion_tokens},
            })
            with state.lock:
                state.answered.append((start, time.monotonic_ns()))

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Loopback chat-completions stub.")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
