"""Stdlib stand-in for an OpenAI-compatible chat-completions endpoint.

Run as ``python3 perfbench/stub_server.py <reply_plan.json>``: it binds
127.0.0.1 on a free port, prints ``READY <port>`` once it accepts
connections, and serves until terminated. The reply to a prompt is looked
up in the workload's reply plan (written by ``workloads.reply_plan``) by
the prompt's question and strategy, so serving costs little CPU, as with a
model served from another machine. Prompts marked ``refuse`` get one
``429 Retry-After: 0`` per server lifetime, so a fresh server is started
for each pipeline pass.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUESTION_RE = re.compile(r"### Question ###\n(.*?)\n### Answer ###", re.DOTALL)


def reply_for(prompt_text: str, plan: dict[str, dict[str, dict]]) -> dict:
    """The plan entry ({"text", "label", "refuse"}) that answers ``prompt_text``."""
    if "### Examples ###" not in prompt_text:
        strategy = "zero"
    else:
        strategy = "cot" if "Let's think step by step." in prompt_text else "few"
    return plan[_QUESTION_RE.search(prompt_text).group(1)][strategy]


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        reply = reply_for(prompt, self.server.plan)
        if reply["refuse"] and self.server.first_sight(prompt):
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        # No "usage" block, so the client counts output tokens itself.
        payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": reply["text"]}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:  # noqa: A002 (signature from http.server)
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: dict[str, dict[str, dict]]) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.plan = plan
        self._refused: set[str] = set()
        self._lock = threading.Lock()

    def first_sight(self, prompt: str) -> bool:
        with self._lock:
            if prompt in self._refused:
                return False
            self._refused.add(prompt)
            return True


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    with StubServer(plan) as server:
        print(f"READY {server.server_address[1]}", flush=True)
        server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1])
