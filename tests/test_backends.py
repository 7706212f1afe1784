from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from collections import deque
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa import backends as backends_module
from eventqa.backends import (
    BackendError,
    BackendKind,
    BackendSpec,
    ContextOverflowError,
    MockFixtureError,
    RetryPolicy,
    complete,
    prompt_fingerprint,
    run_batch,
)
from eventqa.cli import main
from eventqa.corpus import Answer, Relation
from eventqa.graphcore import blocks, causes, happened_after, occurred, parse_question, verbalize_graph
from eventqa.manifest import ManifestError, as_row, canonical_json, make_header, read_ndjson, write_ndjson
from eventqa.promptkit import DemoPool, assemble_prompt, select_demonstrations
from eventqa.vocab import OUTPUT_BUDGETS, Modality, PromptConfig, Strategy, all_configs, count_tokens, parse_selector
from test_graphcore import closure_reachable, occurred_reference

DATA = Path(__file__).parent / "data"


@contextmanager
def serving(handler):
    """The port of a local HTTP server that runs ``handler`` until the block ends."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@contextmanager
def stub_server(script):
    """A chat-completions stub that plays back (status, headers, body) triples."""
    responses = deque(script)
    requests_seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            requests_seen.append(json.loads(self.rfile.read(length)))
            status, headers, body = responses.popleft() if responses else (500, {}, "")
            payload = body.encode("utf-8")
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    with serving(Handler) as port:
        yield f"http://127.0.0.1:{port}/v1", requests_seen


def chat_payload(content, usage=None):
    payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    if usage:
        payload["usage"] = usage
    return json.dumps(payload)


def build_prompts(count=10, configs=("zero-graph",), pool=None):
    split = helpers.synthetic_split(count, seed=17)
    records = []
    for instance in split:
        for selector in configs:
            config = parse_selector(selector)
            demos = select_demonstrations(pool or DemoPool(), config, seed=3)
            verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
            records.append(assemble_prompt(instance, config, demos, verbalized))
    return records


def rows(prompts):
    """Prompt records as the rows of a prompts manifest, which is what ``run_batch`` takes, read back as a file's are."""
    return [json.loads(canonical_json(as_row(prompt))) for prompt in prompts]


class TestMockBackend:
    def test_replays_fixture_exactly(self, tmp_path):
        prompt = "### Question ###\nDid it rain?\n### Answer ###\n"
        fixtures = {prompt_fingerprint(prompt): "Therefore, the final answer is: no"}
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(fixtures))
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(path))
        response = complete(spec, prompt, count_tokens(prompt), 8)
        assert response.raw_text == "Therefore, the final answer is: no"
        assert response.attempt_count == 1
        assert response.latency == 0.0

    def test_missing_fixture_is_an_error(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text("{}")
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(path))
        with pytest.raises(MockFixtureError):
            complete(spec, "anything", 1, 8)


# The regular expressions the oracle used to find a prompt's graph and
# question sections, kept as the reference for the string search that
# replaced them.
REFERENCE_GRAPH_SECTION = re.compile(r"### Graph ###\n(.*?)(?:\n\n|\n\Z)", re.DOTALL)
REFERENCE_QUESTION_SECTION = re.compile(r"### Question ###\n(.*?)\n### Answer ###", re.DOTALL)


def reference_sections(prompt_text):
    """(graph section, stripped question), or the oracle's reply when either is missing."""
    graph = REFERENCE_GRAPH_SECTION.search(prompt_text)
    if graph is None:
        return "no", ("no_graph",)
    question = REFERENCE_QUESTION_SECTION.search(prompt_text)
    if question is None:
        return "no", ("unparsed",)
    return graph.group(1), question.group(1).strip()


SECTION_FRAGMENTS = [
    "### Graph ###\n", "### Graph ###", "### Question ###\n", "\n### Answer ###", "### Answer ###",
    "\n", "\n\n", " ", "#", "x",
]


RIOT, RALLY, MUSIC, CROWD = "riot police deployed", "protest rally", "music", "draws many people to festival"


@pytest.mark.parametrize(
    "question, parsed",
    [
        (f'Did "{MUSIC}" cause "{CROWD}"?', (causes, (MUSIC, CROWD))),
        (f'Did "{RIOT}" block "{RALLY}"?', (blocks, (RIOT, RALLY))),
        # "Did X happen after Y?" asks whether X went ahead despite Y: whether Y did not block X.
        (f'Did "{RALLY}" happen after "{RIOT}"?', (happened_after, (RALLY, RIOT))),
        ('Did "dancing" occur?', (occurred, ("dancing",))),
        ('Did "speeches" happen?', (occurred, ("speeches",))),
        # An exact label wins over the longer label it prefixes.
        (
            'Did "political opposition" cause "political opposition called rally"?',
            (causes, ("political opposition", "political opposition called rally")),
        ),
        ('Did "riot" block "protest"?', (blocks, (RIOT, RALLY))),  # prefixes
        ('Did "many people" occur?', (occurred, (CROWD,))),  # contained
        ('Did "political" cause "protest rally"?', None),  # prefixes two labels
        ('Did "rally" occur?', None),  # contained in two labels
        ('Did "weather" occur?', None),
        (f'Did "weather" happen after "{MUSIC}"?', None),  # one of two labels unknown
        ('Did "gathered" happen while the organizers made a statement?', None),
        (f'Why did "{MUSIC}" cause "{CROWD}"?', None),
    ],
)
def test_oracle_question_grammar(question, parsed):
    assert parse_question(question, helpers.rally_graph()) == parsed


class TestOracleBackend:
    def test_answers_appendix_demo_questions(self, rally_instance, worked_demos):
        """Every layout: graph and tag prompts are answered without a flag, text prompts get ``no_graph``."""
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        pool = DemoPool(helpers.synthetic_split(12, seed=41, id_prefix="pool"))
        expectations = {worked_demos[0].question: "no", worked_demos[1].question: "yes"}
        for question, expected in expectations.items():
            instance = rally_instance._replace(question=question)
            records = []
            for config in all_configs():
                demos = select_demonstrations(pool, config, seed=3)
                records.append(assemble_prompt(instance, config, demos, verbalized if config.includes_graph else None))
            cot_tag = records[-1]
            assert cot_tag.config == PromptConfig(Strategy.COT, Modality.TAG)
            demos = select_demonstrations(pool, cot_tag.config, seed=3)
            truncated = assemble_prompt(instance, cot_tag.config, demos, verbalized, budget=cot_tag.token_count - 1)
            assert truncated.truncation_applied
            for record in [*records, truncated]:
                response = complete(spec, record.prompt_text, record.token_count, 8)
                reply = (expected, ()) if record.config.includes_graph else ("no", ("no_graph",))
                assert (response.raw_text, response.flags) == reply, record.config.selector

    def test_off_grammar_question_flagged_unparsed(self, rally_instance):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        record = assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], verbalized)
        response = complete(spec, record.prompt_text, record.token_count, 8)
        assert response.raw_text == "no"
        assert "unparsed" in response.flags

    def test_text_only_prompt_flagged_no_graph(self, rally_instance):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        record = assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT), [], None)
        response = complete(spec, record.prompt_text, record.token_count, 8)
        assert response.raw_text == "no"
        assert "no_graph" in response.flags

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(SECTION_FRAGMENTS), max_size=14).map("".join))
    def test_sections_found_where_the_reference_regexes_find_them(self, prompt_text):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends_module, "_section_reply", lambda section, question: (section, question))
            assert backends_module._oracle_reply(prompt_text) == reference_sections(prompt_text)

    def test_each_graph_and_question_answered_once_per_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        build = ["build", "--dataset", DATA / "sample_dataset.ndjson", "--demo-pool", DATA / "demo_pool.ndjson"]
        assert main([str(part) for part in [*build, "--out", out]]) == 0
        calls = []
        original = backends_module.oracle_answer

        def counting_answer(graph, question):
            calls.append((graph, question))
            return original(graph, question)

        monkeypatch.setattr(backends_module, "oracle_answer", counting_answer)
        backends_module._section_reply.cache_clear()
        assert main(["run", "--out", str(out), "--backend", "oracle"]) == 0

        _, prompts = read_ndjson(out / "prompts.ndjson")
        _, responses = read_ndjson(out / "responses.ndjson")
        assert len({(p["instance_id"], p["config"]["strategy"], p["config"]["modality"]) for p in prompts}) == 9 * 13
        # Every prompt with a graph reaches oracle_answer, whether or not its question parses.
        assert any(r["flags"] == ["unparsed"] for r in responses)
        asked = {(r["instance_id"], r["config"]) for r in responses if "no_graph" not in r["flags"]}
        pairs = {
            reference_sections(p["prompt_text"])
            for p in prompts
            if (p["instance_id"], f"{p['config']['strategy']}-{p['config']['modality']}") in asked
        }
        assert pairs
        assert len(calls) == len(pairs)

    def test_given_prompt_tokens_replace_counting(self, monkeypatch):
        counted = []
        monkeypatch.setattr(backends_module, "count_tokens", lambda text: counted.append(text) or 1)
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        prompt = "one two three"
        response = complete(spec, prompt, 7, 8)
        assert response.input_tokens == 7
        assert prompt not in counted

    def test_every_question_form_agrees_with_brute_force_on_the_original_graph(self, rally_instance):
        """Through ``complete``: a question about events of the graph's edges gets the answer the original graph
        gives by brute force; one naming an event in no edge, which its sentences never mention, is unparsed."""
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        config = PromptConfig(Strategy.ZERO, Modality.GRAPH)
        rng = Random(28)
        asked = 0
        for _ in range(200):
            graph = helpers.random_graph(rng)
            verbalized = verbalize_graph(graph)
            in_edges = {node_id for edge in graph.edges for node_id in (edge.source, edge.target)}
            occurred_ids = occurred_reference(graph)

            def direct_block(x, y):
                return any(e.relation is Relation.BLOCKS and (e.source, e.target) == (x, y) for e in graph.edges)

            truths = {}
            for a, b in product(graph.nodes, repeat=2):
                truths[f'Did "{a.label}" cause "{b.label}"?', a.id, b.id] = closure_reachable(graph, a.id, b.id)
                truths[f'Did "{a.label}" block "{b.label}"?', a.id, b.id] = direct_block(a.id, b.id)
                truths[f'Did "{a.label}" happen after "{b.label}"?', a.id, b.id] = not direct_block(b.id, a.id)
            for a in graph.nodes:
                truths[f'Did "{a.label}" occur?', a.id, a.id] = a.id in occurred_ids
            for (question, a, b), truth in truths.items():
                record = assemble_prompt(rally_instance._replace(question=question), config, [], verbalized)
                response = complete(spec, record.prompt_text, record.token_count, 8)
                if a in in_edges and b in in_edges:
                    expected = ("yes" if truth else "no", ())
                else:
                    expected = ("no", ("unparsed",))
                assert (response.raw_text, response.flags) == expected, (question, verbalized)
                asked += 1
        assert asked > 10_000

    def test_repeated_graph_sections_parse_once_and_answer_alike(self, rally_instance, worked_demos, monkeypatch):
        parses = []
        original = backends_module.graph_from_sentences

        def counting_parse(sentences):
            parses.append(len(sentences))
            return original(sentences)

        monkeypatch.setattr(backends_module, "graph_from_sentences", counting_parse)
        backends_module._section_reply.cache_clear()
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        instance = rally_instance._replace(question=worked_demos[1].question)
        record = assemble_prompt(instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], verbalized)
        request = record.prompt_text, record.token_count, 8
        replies = {(r.raw_text, r.flags) for r in (complete(spec, *request) for _ in range(3))}
        assert replies == {("yes", ())}
        assert len(parses) == 1

        malformed = record.prompt_text.replace(verbalized[0], "this is not an edge sentence", 1)
        request = malformed, count_tokens(malformed), 8
        replies = {(r.raw_text, r.flags) for r in (complete(spec, *request) for _ in range(3))}
        assert replies == {("no", ("unparsed",))}
        assert len(parses) == 4  # a parse error is raised afresh on every repeat, never cached


class TestHttpBackend:
    def _spec(self, endpoint, **overrides):
        params = dict(
            name="stub",
            kind=BackendKind.HTTP_CHAT,
            endpoint=endpoint,
            model_name="test-model",
            retry_policy=RetryPolicy(max_attempts=5, base_backoff=0.01),
        )
        params.update(overrides)
        return BackendSpec(**params)

    def test_two_429s_then_success(self):
        script = [
            (429, {"Retry-After": "0"}, ""),
            (429, {"Retry-After": "0"}, ""),
            (200, {"Content-Type": "application/json"}, chat_payload("yes", {"prompt_tokens": 5, "completion_tokens": 1})),
        ]
        with stub_server(script) as (endpoint, seen):
            response = complete(self._spec(endpoint), "Did it?", 3, 8)
        assert response.attempt_count == 3
        assert response.raw_text == "yes"
        assert response.input_tokens == 5
        assert len(seen) == 3

    def test_given_prompt_tokens_stand_in_for_missing_usage(self):
        script = [(200, {}, chat_payload("no"))]
        with stub_server(script) as (endpoint, _):
            response = complete(self._spec(endpoint), "Did it?", 42, 8)
        assert response.input_tokens == 42

    def test_sends_single_user_message_greedy(self):
        script = [(200, {}, chat_payload("no"))]
        with stub_server(script) as (endpoint, seen):
            complete(self._spec(endpoint), "Did it?", 3, 8)
        body = seen[0]
        assert body["messages"] == [{"role": "user", "content": "Did it?"}]
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 8
        assert body["model"] == "test-model"

    def test_exhausted_retries_surface_typed_error(self):
        script = [(500, {}, "")] * 3
        with stub_server(script) as (endpoint, _):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.01))
            with pytest.raises(BackendError, match="after 3 attempts"):
                complete(spec, "x", 1, 8)

    def test_non_json_body_is_retried_then_typed_error(self):
        script = [(200, {"Content-Type": "text/html"}, "<html>gateway</html>")] * 3
        with stub_server(script) as (endpoint, seen):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.01))
            with pytest.raises(BackendError, match="not JSON"):
                complete(spec, "x", 1, 8)
            assert len(seen) == 3

    def test_unusable_retry_after_falls_back_to_backoff(self):
        script = [(429, {"Retry-After": value}, "") for value in ("-1", "nan", "inf")]
        script.append((200, {}, chat_payload("yes")))
        with stub_server(script) as (endpoint, _):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=4, base_backoff=0.01))
            response = complete(spec, "x", 1, 8)
        assert response.attempt_count == 4
        assert response.raw_text == "yes"

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_is_capped(self, status, monkeypatch):
        slept = []
        monkeypatch.setattr(backends_module.time, "sleep", slept.append)
        script = [(status, {"Retry-After": "86400"}, ""), (200, {}, chat_payload("yes"))]
        with stub_server(script) as (endpoint, _):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.01))
            response = complete(spec, "x", 1, 8)
        assert response.raw_text == "yes"
        assert slept == [backends_module.MAX_RETRY_WAIT]

    def test_retry_after_honoured_on_503(self, monkeypatch):
        slept = []
        monkeypatch.setattr(backends_module.time, "sleep", slept.append)
        script = [(503, {"Retry-After": "0.25"}, ""), (500, {"Retry-After": "0.25"}, ""), (200, {}, chat_payload("no"))]
        with stub_server(script) as (endpoint, _):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.01))
            response = complete(spec, "x", 1, 8)
        assert response.attempt_count == 3
        # 503 waits as asked; a 500's Retry-After is ignored for the doubled backoff.
        assert slept == [0.25, 0.02]

    @pytest.mark.parametrize(
        "payload",
        [
            chat_payload(5),
            chat_payload("yes", {"prompt_tokens": "abc"}),
            chat_payload("yes", {"prompt_tokens": None}),
            json.dumps({"choices": [{"message": {"content": "yes"}}], "usage": ["x"]}),
            chat_payload("yes \ud800"),  # escaped in the JSON; no manifest line could hold it
        ],
        ids=["numeric-content", "string-prompt-tokens", "null-prompt-tokens", "usage-list", "lone-surrogate-content"],
    )
    def test_malformed_payload_fails_only_its_prompt(self, tmp_path, payload):
        script = [(200, {}, payload), (200, {}, chat_payload("no"))]
        prompts = build_prompts(2)
        with stub_server(script) as (endpoint, seen):
            spec = self._spec(endpoint, max_concurrency=1)
            result = run_batch(spec, rows(prompts), tmp_path / "r.ndjson", make_header("run", 0, {}))
        assert len(seen) == 2
        assert result.completed == 1
        [failure] = result.failures
        assert failure.instance_id == prompts[0].instance_id
        assert "malformed chat-completions payload" in failure.error

    def test_reply_is_counted_only_without_completion_tokens(self, monkeypatch):
        counted = []

        def recording_count(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(backends_module, "count_tokens", recording_count)
        script = [
            (200, {}, chat_payload("given count", {"completion_tokens": 9})),
            (200, {}, chat_payload("counted here", {"prompt_tokens": 5})),
        ]
        with stub_server(script) as (endpoint, _):
            replies = [complete(self._spec(endpoint), "x", 1, 8) for _ in script]
        assert [reply.output_tokens for reply in replies] == [9, 2]
        assert counted == ["counted here"]

    def test_client_error_fails_immediately(self):
        script = [(400, {}, "bad request")]
        with stub_server(script) as (endpoint, seen):
            with pytest.raises(BackendError, match="HTTP 400"):
                complete(self._spec(endpoint), "x", 1, 8)
            assert len(seen) == 1

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("TAGEQA_API_KEY", "sekrit")
        captured = {}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                captured["auth"] = self.headers.get("Authorization")
                payload = chat_payload("no").encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            spec = self._spec(f"http://127.0.0.1:{server.server_port}/v1")
            complete(spec, "x", 1, 8)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert captured["auth"] == "Bearer sekrit"

    def test_body_nested_too_deep_is_retried_as_not_json(self, tmp_path):
        script = [(200, {}, "[" * 200_000)] * 2 + [(200, {}, chat_payload("no"))]
        prompts = build_prompts(2)
        with stub_server(script) as (endpoint, seen):
            spec = self._spec(endpoint, max_concurrency=1, retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.01))
            result = run_batch(spec, rows(prompts), tmp_path / "r.ndjson", make_header("run", 0, {}))
        assert len(seen) == 3
        assert result.completed == 1
        [failure] = result.failures
        assert failure.instance_id == prompts[0].instance_id
        assert "after 2 attempts (response body is not JSON)" in failure.error

    @pytest.mark.parametrize("key", ["abc\r", "ключ"], ids=["carriage-return", "outside-latin-1"])
    def test_api_key_that_cannot_go_in_a_header_fails_at_once_unprinted(self, key, monkeypatch):
        monkeypatch.setenv("TAGEQA_API_KEY", key)
        slept = []
        monkeypatch.setattr(backends_module.time, "sleep", slept.append)
        with stub_server([(200, {}, chat_payload("no"))]) as (endpoint, seen):
            with pytest.raises(BackendError) as raised:
                complete(self._spec(endpoint), "x", 1, 8)
        assert "TAGEQA_API_KEY" in str(raised.value)
        assert key.strip() not in str(raised.value)
        assert seen == [] and slept == []

    def test_output_budgets_by_strategy(self):
        assert OUTPUT_BUDGETS[Strategy.ZERO] == 8
        assert OUTPUT_BUDGETS[Strategy.FEW] == 8
        assert OUTPUT_BUDGETS[Strategy.COT] == 256


# One completion in a fresh interpreter, since urllib reads the proxy variables once per process. It resolves
# no host name but 127.0.0.1, so a request that bypassed the proxy fails instead of reaching the network.
_COMPLETE_ONCE = """
import socket, sys
resolve = socket.getaddrinfo
def local_only(host, *args, **kwargs):
    if host != "127.0.0.1":
        raise socket.gaierror(f"no lookup of {host!r} here")
    return resolve(host, *args, **kwargs)
socket.getaddrinfo = local_only
from eventqa.backends import BackendError, BackendKind, BackendSpec, RetryPolicy, complete
spec = BackendSpec("stub", BackendKind.HTTP_CHAT, endpoint=sys.argv[1], retry_policy=RetryPolicy(1, 0.0))
try:
    print(complete(spec, "Did it?", 3, 8).raw_text)
except BackendError as exc:
    print(f"error: {exc}")
"""


class TestProxy:
    """``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` route an ``http_chat`` request as they route any other."""

    @contextmanager
    def _proxy(self):
        """A forward proxy that records (method, target) and answers each POST itself; it opens no tunnel."""
        seen = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                seen.append((self.command, self.path))
                self.rfile.read(int(self.headers["Content-Length"]))
                payload = chat_payload("proxied").encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_CONNECT(self):
                seen.append((self.command, self.path))
                self.send_error(502)

            def log_message(self, *args):
                pass

        with serving(Handler) as port:
            yield f"http://127.0.0.1:{port}", seen

    def _complete(self, endpoint, **proxy_env):
        """The reply (or ``error: ...``) of one completion against ``endpoint`` under exactly ``proxy_env``."""
        env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
        env["PYTHONPATH"] = str(Path(backends_module.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", _COMPLETE_ONCE, endpoint],
            env={**env, **proxy_env},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    def test_http_goes_through_the_proxy(self):
        with self._proxy() as (proxy, seen):
            reply = self._complete("http://example.invalid/v1", HTTP_PROXY=proxy)
        assert reply == "proxied"
        assert seen == [("POST", "http://example.invalid/v1/chat/completions")]

    def test_no_proxy_reaches_the_endpoint_directly(self):
        with self._proxy() as (proxy, proxied), stub_server([(200, {}, chat_payload("direct"))]) as (endpoint, seen):
            reply = self._complete(endpoint, HTTP_PROXY=proxy, NO_PROXY="127.0.0.1")
        assert reply == "direct"
        assert len(seen) == 1
        assert proxied == []

    def test_https_asks_the_proxy_for_a_tunnel(self):
        with self._proxy() as (proxy, seen):
            reply = self._complete("https://example.invalid/v1", HTTPS_PROXY=proxy)
        assert reply.startswith("error: stub: request failed after 1 attempts")
        assert seen == [("CONNECT", "example.invalid:443")]


class TestRunBatch:
    def _oracle_spec(self, concurrency=4):
        return BackendSpec(name="oracle", kind=BackendKind.ORACLE, max_concurrency=concurrency)

    def _header(self):
        return make_header("run", 0, {"stage": "run", "test": True})

    def test_manifest_ordered_by_instance_id(self, tmp_path):
        prompts = build_prompts(10)
        path = tmp_path / "responses.ndjson"
        result = run_batch(self._oracle_spec(), rows(prompts), path, self._header())
        assert not result.failures
        _, records = read_ndjson(path)
        keys = [(r["instance_id"], r["config"]) for r in records]
        assert keys == sorted(keys)
        assert len(list(records)) == 10

    def test_shuffled_submission_order_gives_identical_bytes(self, tmp_path):
        prompts = build_prompts(10)
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run_batch(self._oracle_spec(), rows(prompts), path_a, self._header())
        shuffled = list(prompts)
        Random(99).shuffle(shuffled)
        run_batch(self._oracle_spec(concurrency=3), rows(shuffled), path_b, self._header())
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_batch_is_an_error_and_writes_nothing(self, tmp_path):
        path = tmp_path / "responses.ndjson"
        with pytest.raises(BackendError):
            run_batch(self._oracle_spec(), [], path, self._header())
        assert not path.exists()

    def test_duplicate_keys_rejected(self, tmp_path):
        prompts = build_prompts(2)
        with pytest.raises(BackendError, match="duplicate"):
            run_batch(self._oracle_spec(), rows(prompts + prompts[:1]), tmp_path / "r.ndjson", self._header())

    def test_resume_skips_completed_records(self, tmp_path, monkeypatch):
        prompts = build_prompts(8)
        path = tmp_path / "responses.ndjson"
        header = self._header()
        run_batch(self._oracle_spec(), rows(prompts), path, header)
        full_bytes = path.read_bytes()

        # Keep the header and first 3 records, then a torn partial line.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n" + lines[4][:17], encoding="utf-8")

        requested = []
        original = backends_module.complete

        def counting_complete(spec, prompt_text, *args):
            requested.append(prompt_text)
            return original(spec, prompt_text, *args)

        monkeypatch.setattr(backends_module, "complete", counting_complete)
        result = run_batch(self._oracle_spec(), rows(prompts), path, header)
        assert not result.failures
        assert len(requested) == len(prompts) - 3
        assert path.read_bytes() == full_bytes

    def test_refuses_manifest_from_other_config(self, tmp_path):
        prompts = build_prompts(3)
        path = tmp_path / "responses.ndjson"
        run_batch(self._oracle_spec(), rows(prompts), path, self._header())
        other = make_header("run", 1, {"stage": "run", "test": False})
        with pytest.raises(BackendError, match="different run configuration"):
            run_batch(self._oracle_spec(), rows(prompts), path, other)

    def test_partial_failure_keeps_going(self, tmp_path, monkeypatch):
        prompts = build_prompts(6)
        failing = {prompts[2].prompt_text, prompts[4].prompt_text}
        original = backends_module.complete

        def flaky_complete(spec, prompt_text, *args):
            if prompt_text in failing:
                raise BackendError("boom")
            return original(spec, prompt_text, *args)

        monkeypatch.setattr(backends_module, "complete", flaky_complete)
        result = run_batch(self._oracle_spec(), rows(prompts), tmp_path / "r.ndjson", self._header())
        assert len(result.failures) == 2
        assert result.completed == 4
        failed_ids = {f.instance_id for f in result.failures}
        assert failed_ids == {prompts[2].instance_id, prompts[4].instance_id}

    @pytest.mark.parametrize("kind", [BackendKind.ORACLE, BackendKind.MOCK])
    def test_deterministic_backends_run_without_an_executor(self, tmp_path, monkeypatch, kind):
        def no_executor(*args, **kwargs):
            raise AssertionError("deterministic backends must run inline")

        monkeypatch.setattr(backends_module, "ThreadPoolExecutor", no_executor)
        prompts = build_prompts(4)
        fixtures_path = tmp_path / "fixtures.json"
        fixtures_path.write_text(json.dumps({prompt_fingerprint(p.prompt_text): "no" for p in prompts}))
        spec = BackendSpec(name=kind.value, kind=kind, fixtures_path=str(fixtures_path), max_concurrency=2)
        result = run_batch(spec, rows(prompts), tmp_path / "r.ndjson", self._header())
        assert not result.failures
        assert result.completed == 4

    @pytest.mark.parametrize(
        "batch, error",
        [
            (lambda prompts: [], "no prompts"),
            (lambda prompts: prompts + prompts[:1], "duplicate"),
            (lambda prompts: sorted(prompts + prompts[:1], key=lambda p: p.instance_id), "duplicate"),
            (lambda prompts: prompts[:1] + [prompts[1]._replace(token_count=10**6)], "exceed"),
        ],
        ids=["empty", "duplicate", "adjacent-duplicate", "oversized"],
    )
    def test_refused_batch_sends_and_writes_nothing(self, tmp_path, monkeypatch, batch, error):
        def no_request(*args):
            raise AssertionError("a refused batch must send nothing")

        monkeypatch.setattr(backends_module, "complete", no_request)
        path = tmp_path / "r.ndjson"
        with pytest.raises(BackendError, match=error):
            run_batch(self._oracle_spec(), rows(batch(build_prompts(3))), path, self._header())
        assert not path.exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda row: ["not", "a", "row"], "is not a JSON object"),
            (lambda row: {k: v for k, v in row.items() if k != "token_count"}, "no field 'token_count'"),
            (lambda row: {k: v for k, v in row.items() if k != "tokenizer"}, "no field 'tokenizer'"),
            (lambda row: dict(row, instance_id=7), "instance_id must be a non-empty string, got 7"),
            (lambda row: dict(row, instance_id=""), "instance_id must be a non-empty string"),
            (lambda row: dict(row, config="zero-graph"), "config must be a JSON object"),
            (lambda row: dict(row, config=dict(row["config"], strategy="many")), "config.strategy"),
            (lambda row: dict(row, token_count=-1), "token_count must be a non-negative integer"),
            (lambda row: dict(row, token_count=True), "token_count must be a non-negative integer"),
            (lambda row: dict(row, token_count="5"), "token_count must be a non-negative integer"),
            (lambda row: dict(row, prompt_text=None), "prompt_text must be a string"),
            (lambda row: dict(row, tokenizer=["simple"]), "tokenizer must be 'simple', got ['simple']"),
            (lambda row: dict(row, prompt_text=row["prompt_text"] + "\ud800"), "prompt_text must be a string, got '"),
            (lambda row: dict(row, truncation_applied="yes"), "truncation_applied must be a JSON boolean, got 'yes'"),
            (lambda row: dict(row, truncation_applied=1), "truncation_applied must be a JSON boolean, got 1"),
            (lambda row: dict(row, truncation_applied=None), "truncation_applied must be a JSON boolean, got None"),
            (lambda row: {k: v for k, v in row.items() if k != "truncation_applied"}, "no field 'truncation_applied'"),
        ],
        ids=[
            "not-an-object", "no-token-count", "no-tokenizer", "numeric-id", "empty-id", "selector-config",
            "unknown-strategy", "negative-count", "bool-count", "string-count", "null-prompt", "list-tokenizer",
            "lone-surrogate-prompt", "string-truncation", "integer-truncation", "null-truncation", "no-truncation",
        ],
    )
    def test_malformed_row_refuses_the_batch(self, tmp_path, monkeypatch, spoil, message):
        def no_request(*args):
            raise AssertionError("a refused batch must send nothing")

        monkeypatch.setattr(backends_module, "complete", no_request)
        batch = rows(build_prompts(3))
        batch[1] = spoil(batch[1])
        path = tmp_path / "r.ndjson"
        with pytest.raises(ManifestError, match=re.escape(f"prompt batch row 2 is malformed: {message}")):
            run_batch(self._oracle_spec(), batch, path, self._header())
        assert not path.exists()

    def test_a_stale_derived_key_does_not_change_the_batch(self, tmp_path):
        # A version 0.1.0 row stored demo_count and include_reasoning_traces; no value of them is read.
        clean = tmp_path / "clean.ndjson"
        run_batch(self._oracle_spec(), rows(build_prompts(3)), clean, self._header())
        batch = rows(build_prompts(3))
        for row in batch:
            row["config"] = dict(row["config"], demo_count=-1, include_reasoning_traces="yes")
        stale = tmp_path / "stale.ndjson"
        run_batch(self._oracle_spec(), batch, stale, self._header())
        assert stale.read_bytes() == clean.read_bytes()

    def test_stored_token_count_is_checked_against_the_context_limit(self, tmp_path):
        # Every text counts more than 10 tokens; only the row that stores a count over the limit is refused.
        batch = [dict(row, token_count=1) for row in rows(build_prompts(3))]
        assert all(count_tokens(row["prompt_text"]) > 10 for row in batch)
        batch[1]["token_count"] = 11
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE, context_limit=10)
        path = tmp_path / "r.ndjson"
        message = "1 prompts exceed the 10-token context limit of oracle (largest: 11)"
        with pytest.raises(ContextOverflowError, match=re.escape(message)):
            run_batch(spec, batch, path, self._header())
        assert not path.exists()

    def test_an_iterator_of_prompts_is_refused(self, tmp_path):
        with pytest.raises(BackendError, match="iterate twice"):
            run_batch(self._oracle_spec(), iter(rows(build_prompts(3))), tmp_path / "r.ndjson", self._header())

    def test_output_written_in_order_is_not_rewritten(self, tmp_path, monkeypatch):
        rewrites = []
        monkeypatch.setattr(backends_module.manifest, "sort_ndjson", lambda *args: rewrites.append(args))
        prompts = sorted(build_prompts(6, configs=("zero-graph", "zero-tag")), key=lambda p: p.instance_id)
        assert run_batch(self._oracle_spec(), rows(prompts), tmp_path / "r.ndjson", self._header()).completed == 12
        assert rewrites == []
        run_batch(self._oracle_spec(), rows(prompts[::-1]), tmp_path / "reversed.ndjson", self._header())
        assert len(rewrites) == 1

    def test_resume_redoes_a_last_record_missing_its_newline(self, tmp_path):
        prompts = build_prompts(4)
        path = tmp_path / "responses.ndjson"
        header = self._header()
        run_batch(self._oracle_spec(), rows(prompts), path, header)
        full_bytes = path.read_bytes()
        path.write_bytes(full_bytes[:-1])
        assert run_batch(self._oracle_spec(), rows(prompts), path, header).completed == 4
        assert path.read_bytes() == full_bytes

    def test_http_submissions_stay_within_the_window(self):
        spec = BackendSpec(name="http", kind=BackendKind.HTTP_CHAT, endpoint="http://127.0.0.1:9", max_concurrency=2)
        prompts = build_prompts(20)
        pulled, yielded, widest = 0, 0, 0

        def pending():
            nonlocal pulled
            for prompt in prompts:
                pulled += 1
                yield prompt

        def run_one(prompt):
            return {"instance_id": prompt.instance_id}

        for prompt, result in backends_module._dispatch(spec, run_one, pending()):
            widest = max(widest, pulled - yielded)
            yielded += 1
            assert result() == {"instance_id": prompt.instance_id}
        assert yielded == len(prompts)
        assert widest <= 2 * spec.max_concurrency

    @pytest.mark.parametrize(
        "fixtures, message",
        [
            (lambda prompts: None, "cannot read"),
            (lambda prompts: "{not json", "not valid JSON"),
            (lambda prompts: "[]", "is not a JSON object"),
            (
                lambda prompts: json.dumps({prompt_fingerprint(p.prompt_text): 5 for p in prompts}),
                "must map prompt hashes to reply strings",
            ),
            (
                lambda prompts: json.dumps({prompt_fingerprint(p.prompt_text): "yes \ud800" for p in prompts}),
                "reply strings that UTF-8 can encode",
            ),
        ],
        ids=["missing", "not-json", "not-an-object", "non-string-reply", "lone-surrogate-reply"],
    )
    def test_unusable_fixtures_refuse_the_batch(self, tmp_path, monkeypatch, fixtures, message):
        def no_request(*args):
            raise AssertionError("a refused batch must send nothing")

        monkeypatch.setattr(backends_module, "complete", no_request)
        prompts = build_prompts(3)
        fixtures_path = tmp_path / "fixtures.json"
        text = fixtures(prompts)
        if text is not None:
            fixtures_path.write_text(text)
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(fixtures_path))
        path = tmp_path / "r.ndjson"
        with pytest.raises(MockFixtureError, match=message):
            run_batch(spec, rows(prompts), path, self._header())
        assert not path.exists()

    def test_mock_batch_is_deterministic(self, tmp_path):
        prompts = build_prompts(5)
        fixtures = {prompt_fingerprint(p.prompt_text): f"answer is irrelevant {i}" for i, p in enumerate(prompts)}
        fixtures_path = tmp_path / "fixtures.json"
        fixtures_path.write_text(json.dumps(fixtures))
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(fixtures_path), max_concurrency=2)
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run_batch(spec, rows(prompts), path_a, self._header())
        run_batch(spec, rows(prompts), path_b, self._header())
        assert path_a.read_bytes() == path_b.read_bytes()


class TestRunStageTokenCounts:
    """`eventqa run` takes each prompt's stored token count and refuses a count made by another tokenizer."""

    def _build(self, tmp_path):
        out = tmp_path / "out"
        argv = ["build", "--dataset", DATA / "sample_dataset.ndjson", "--out", out, "--configs", "zero-graph,zero-text"]
        assert main([str(part) for part in argv]) == 0
        header, rows = read_ndjson(out / "prompts.ndjson")
        return out, header, list(rows)

    def _run(self, out, *extra):
        return main([str(part) for part in ["run", "--out", out, *extra]])

    def test_matching_tokenizer_counts_no_prompt(self, tmp_path, monkeypatch):
        out, _, prompts = self._build(tmp_path)
        counted = []

        def recording_count(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(backends_module, "count_tokens", recording_count)
        assert self._run(out, "--backend", "oracle") == 0
        assert not {p["prompt_text"] for p in prompts} & set(counted)
        _, rows = read_ndjson(out / "responses.ndjson")
        assert [row["input_tokens"] for row in rows] == [p["token_count"] for p in prompts]

    def test_other_tokenizer_is_refused(self, tmp_path, capsys):
        out, header, prompts = self._build(tmp_path)
        prompts[1] = dict(prompts[1], tokenizer="chars", token_count=len(prompts[1]["prompt_text"]))
        write_ndjson(out / "prompts.ndjson", header, prompts)
        assert self._run(out, "--backend", "oracle") == 2
        err = capsys.readouterr().err
        assert f"{out / 'prompts.ndjson'} row 2 is malformed: tokenizer must be 'simple', got 'chars'" in err
        assert not (out / "responses.ndjson").exists()
