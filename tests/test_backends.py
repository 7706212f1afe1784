from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from random import Random

import pytest

import helpers
from eventqa import backends as backends_module
from eventqa import promptkit
from eventqa.backends import (
    BackendError,
    BackendKind,
    BackendSpec,
    CompletionRequest,
    ContextOverflowError,
    MockFixtureError,
    RetryPolicy,
    complete,
    output_budget,
    prompt_fingerprint,
    run_batch,
)
from eventqa.cli import main
from eventqa.corpus import Answer
from eventqa.graphcore import verbalize_graph
from eventqa.manifest import make_header, read_ndjson
from eventqa.promptkit import (
    Modality,
    PromptConfig,
    PromptRecord,
    Strategy,
    assemble_prompt,
    count_tokens,
    register_tokenizer,
    select_demonstrations,
)

DATA = Path(__file__).parent / "data"


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

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1", requests_seen
    finally:
        server.shutdown()
        thread.join()


def chat_payload(content, usage=None):
    payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    if usage:
        payload["usage"] = usage
    return json.dumps(payload)


def build_prompts(count=10, configs=("zero-graph",), pool=None):
    from eventqa.promptkit import parse_selector

    split = helpers.synthetic_split(count, seed=17)
    records = []
    for instance in split.instances:
        for selector in configs:
            config = parse_selector(selector)
            demos = select_demonstrations(pool or [], config, seed=3, exclude_ids={instance.instance_id})
            verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
            records.append(assemble_prompt(instance, config, demos, verbalized))
    return records


class TestMockBackend:
    def test_replays_fixture_exactly(self, tmp_path):
        prompt = "### Question ###\nDid it rain?\n### Answer ###\n"
        fixtures = {prompt_fingerprint(prompt): "Therefore, the final answer is: no"}
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(fixtures))
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(path))
        response = complete(spec, CompletionRequest(prompt_text=prompt, max_output_tokens=8))
        assert response.raw_text == "Therefore, the final answer is: no"
        assert response.attempt_count == 1
        assert response.latency == 0.0

    def test_missing_fixture_is_an_error(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text("{}")
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(path))
        with pytest.raises(MockFixtureError):
            complete(spec, CompletionRequest(prompt_text="anything", max_output_tokens=8))


class TestOracleBackend:
    def test_answers_appendix_demo_questions(self, rally_instance, worked_demos):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        expectations = {worked_demos[0].question: "no", worked_demos[1].question: "yes"}
        for question, expected in expectations.items():
            instance = replace(rally_instance, question=question)
            record = assemble_prompt(instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], verbalized)
            response = complete(spec, CompletionRequest(prompt_text=record.prompt_text, max_output_tokens=8))
            assert response.raw_text == expected
            assert response.flags == ()

    def test_off_grammar_question_flagged_unparsed(self, rally_instance):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        record = assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], verbalized)
        response = complete(spec, CompletionRequest(prompt_text=record.prompt_text, max_output_tokens=8))
        assert response.raw_text == "no"
        assert "unparsed" in response.flags

    def test_text_only_prompt_flagged_no_graph(self, rally_instance):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        record = assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT), [], None)
        response = complete(spec, CompletionRequest(prompt_text=record.prompt_text, max_output_tokens=8))
        assert response.raw_text == "no"
        assert "no_graph" in response.flags

    def test_context_overflow_rejected(self):
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE, context_limit=4)
        with pytest.raises(ContextOverflowError):
            complete(spec, CompletionRequest(prompt_text="one two three four five", max_output_tokens=8))

    def test_given_prompt_tokens_replace_counting(self, monkeypatch):
        counted = []
        monkeypatch.setattr(backends_module, "count_tokens", lambda text, tokenizer: counted.append(text) or 1)
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE, context_limit=10)
        prompt = "one two three"
        response = complete(spec, CompletionRequest(prompt_text=prompt, max_output_tokens=8, prompt_tokens=7))
        assert response.input_tokens == 7
        with pytest.raises(ContextOverflowError, match="prompt of 11 tokens"):
            complete(spec, CompletionRequest(prompt_text=prompt, max_output_tokens=8, prompt_tokens=11))
        assert prompt not in counted

    def test_repeated_graph_sections_parse_once_and_answer_alike(self, rally_instance, worked_demos, monkeypatch):
        parses = []
        original = backends_module.graph_from_sentences

        def counting_parse(sentences):
            parses.append(len(sentences))
            return original(sentences)

        monkeypatch.setattr(backends_module, "graph_from_sentences", counting_parse)
        backends_module._graph_of_section.cache_clear()
        spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
        verbalized = verbalize_graph(rally_instance.graph)
        instance = replace(rally_instance, question=worked_demos[1].question)
        record = assemble_prompt(instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], verbalized)
        request = CompletionRequest(prompt_text=record.prompt_text, max_output_tokens=8)
        replies = {(r.raw_text, r.flags) for r in (complete(spec, request) for _ in range(3))}
        assert replies == {("yes", ())}
        assert len(parses) == 1

        malformed = record.prompt_text.replace(verbalized.sentences[0], "this is not an edge sentence", 1)
        request = CompletionRequest(prompt_text=malformed, max_output_tokens=8)
        replies = {(r.raw_text, r.flags) for r in (complete(spec, request) for _ in range(3))}
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
            response = complete(self._spec(endpoint), CompletionRequest(prompt_text="Did it?", max_output_tokens=8))
        assert response.attempt_count == 3
        assert response.raw_text == "yes"
        assert response.input_tokens == 5
        assert len(seen) == 3

    def test_given_prompt_tokens_stand_in_for_missing_usage(self):
        script = [(200, {}, chat_payload("no"))]
        with stub_server(script) as (endpoint, _):
            response = complete(
                self._spec(endpoint), CompletionRequest(prompt_text="Did it?", max_output_tokens=8, prompt_tokens=42)
            )
        assert response.input_tokens == 42

    def test_sends_single_user_message_greedy(self):
        script = [(200, {}, chat_payload("no"))]
        with stub_server(script) as (endpoint, seen):
            complete(self._spec(endpoint), CompletionRequest(prompt_text="Did it?", max_output_tokens=8))
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
                complete(spec, CompletionRequest(prompt_text="x", max_output_tokens=8))

    def test_non_json_body_is_retried_then_typed_error(self):
        script = [(200, {"Content-Type": "text/html"}, "<html>gateway</html>")] * 3
        with stub_server(script) as (endpoint, seen):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.01))
            with pytest.raises(BackendError, match="not JSON"):
                complete(spec, CompletionRequest(prompt_text="x", max_output_tokens=8))
            assert len(seen) == 3

    def test_unusable_retry_after_falls_back_to_backoff(self):
        script = [(429, {"Retry-After": value}, "") for value in ("-1", "nan", "inf")]
        script.append((200, {}, chat_payload("yes")))
        with stub_server(script) as (endpoint, _):
            spec = self._spec(endpoint, retry_policy=RetryPolicy(max_attempts=4, base_backoff=0.01))
            response = complete(spec, CompletionRequest(prompt_text="x", max_output_tokens=8))
        assert response.attempt_count == 4
        assert response.raw_text == "yes"

    def test_client_error_fails_immediately(self):
        script = [(400, {}, "bad request")]
        with stub_server(script) as (endpoint, seen):
            with pytest.raises(BackendError, match="HTTP 400"):
                complete(self._spec(endpoint), CompletionRequest(prompt_text="x", max_output_tokens=8))
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
            complete(spec, CompletionRequest(prompt_text="x", max_output_tokens=8))
        finally:
            server.shutdown()
            thread.join()
        assert captured["auth"] == "Bearer sekrit"

    def test_output_budgets_by_strategy(self):
        assert output_budget(Strategy.ZERO) == 8
        assert output_budget(Strategy.FEW) == 8
        assert output_budget(Strategy.COT) == 256


class TestRunBatch:
    def _oracle_spec(self, concurrency=4):
        return BackendSpec(name="oracle", kind=BackendKind.ORACLE, max_concurrency=concurrency)

    def _header(self):
        return make_header("run", 0, {"stage": "run", "test": True})

    def test_manifest_ordered_by_instance_id(self, tmp_path):
        prompts = build_prompts(10)
        path = tmp_path / "responses.ndjson"
        result = run_batch(self._oracle_spec(), prompts, path, self._header())
        assert result.ok
        _, records = read_ndjson(path)
        keys = [(r["instance_id"], r["config"]) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 10

    def test_shuffled_submission_order_gives_identical_bytes(self, tmp_path):
        prompts = build_prompts(10)
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run_batch(self._oracle_spec(), prompts, path_a, self._header())
        shuffled = list(prompts)
        Random(99).shuffle(shuffled)
        run_batch(self._oracle_spec(concurrency=3), shuffled, path_b, self._header())
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_batch_is_an_error_and_writes_nothing(self, tmp_path):
        path = tmp_path / "responses.ndjson"
        with pytest.raises(BackendError):
            run_batch(self._oracle_spec(), [], path, self._header())
        assert not path.exists()

    def test_duplicate_keys_rejected(self, tmp_path):
        prompts = build_prompts(2)
        with pytest.raises(BackendError, match="duplicate"):
            run_batch(self._oracle_spec(), prompts + prompts[:1], tmp_path / "r.ndjson", self._header())

    def test_resume_skips_completed_records(self, tmp_path, monkeypatch):
        prompts = build_prompts(8)
        path = tmp_path / "responses.ndjson"
        header = self._header()
        run_batch(self._oracle_spec(), prompts, path, header)
        full_bytes = path.read_bytes()

        # Keep the header and first 3 records, then a torn partial line.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n" + lines[4][:17], encoding="utf-8")

        requested = []
        original = backends_module.complete

        def counting_complete(spec, request):
            requested.append(request.prompt_text)
            return original(spec, request)

        monkeypatch.setattr(backends_module, "complete", counting_complete)
        result = run_batch(self._oracle_spec(), prompts, path, header)
        assert result.ok
        assert len(requested) == len(prompts) - 3
        assert path.read_bytes() == full_bytes

    def test_refuses_manifest_from_other_config(self, tmp_path):
        prompts = build_prompts(3)
        path = tmp_path / "responses.ndjson"
        run_batch(self._oracle_spec(), prompts, path, self._header())
        other = make_header("run", 1, {"stage": "run", "test": False})
        with pytest.raises(BackendError, match="different run configuration"):
            run_batch(self._oracle_spec(), prompts, path, other)

    def test_partial_failure_keeps_going(self, tmp_path, monkeypatch):
        prompts = build_prompts(6)
        failing = {prompts[2].prompt_text, prompts[4].prompt_text}
        original = backends_module.complete

        def flaky_complete(spec, request):
            if request.prompt_text in failing:
                raise BackendError("boom")
            return original(spec, request)

        monkeypatch.setattr(backends_module, "complete", flaky_complete)
        result = run_batch(self._oracle_spec(), prompts, tmp_path / "r.ndjson", self._header())
        assert len(result.failures) == 2
        assert len(result.responses) == 4
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
        result = run_batch(spec, prompts, tmp_path / "r.ndjson", self._header())
        assert result.ok
        assert len(result.responses) == 4

    def test_mock_batch_is_deterministic(self, tmp_path):
        prompts = build_prompts(5)
        fixtures = {prompt_fingerprint(p.prompt_text): f"answer is irrelevant {i}" for i, p in enumerate(prompts)}
        fixtures_path = tmp_path / "fixtures.json"
        fixtures_path.write_text(json.dumps(fixtures))
        spec = BackendSpec(name="mock", kind=BackendKind.MOCK, fixtures_path=str(fixtures_path), max_concurrency=2)
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run_batch(spec, prompts, path_a, self._header())
        run_batch(spec, prompts, path_b, self._header())
        assert path_a.read_bytes() == path_b.read_bytes()


class TestRunStageTokenCounts:
    """`eventqa run` reuses each prompt's stored token count when the tokenizers match."""

    def _build(self, tmp_path, tokenizer="simple"):
        out = tmp_path / "out"
        argv = ["build", "--dataset", DATA / "sample_dataset.ndjson", "--out", out, "--configs", "zero-graph,zero-text"]
        assert main([str(part) for part in [*argv, "--tokenizer", tokenizer]]) == 0
        _, rows = read_ndjson(out / "prompts.ndjson")
        return out, [PromptRecord.from_dict(row) for row in rows]

    def _run(self, out, *extra):
        return main([str(part) for part in ["run", "--out", out, *extra]])

    def test_matching_tokenizer_counts_no_prompt(self, tmp_path, monkeypatch):
        out, prompts = self._build(tmp_path)
        counted = []

        def recording_count(text, tokenizer="simple"):
            counted.append(text)
            return count_tokens(text, tokenizer)

        monkeypatch.setattr(promptkit, "count_tokens", recording_count)
        monkeypatch.setattr(backends_module, "count_tokens", recording_count)
        assert self._run(out, "--backend", "oracle") == 0
        assert not {p.prompt_text for p in prompts} & set(counted)
        _, rows = read_ndjson(out / "responses.ndjson")
        assert [row["input_tokens"] for row in rows] == [p.token_count for p in prompts]

    def test_other_tokenizer_is_recounted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(promptkit, "_TOKENIZERS", dict(promptkit._TOKENIZERS))
        register_tokenizer("chars", len)
        out, prompts = self._build(tmp_path, tokenizer="chars")
        simple = [count_tokens(p.prompt_text, "simple") for p in prompts]
        assert min(p.token_count for p in prompts) > max(simple)
        # A limit the stored character counts exceed but the spec's own counts meet.
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"narrow": {"kind": "oracle", "context_limit": max(simple)}}))
        assert self._run(out, "--backend", "narrow", "--backends-config", config) == 0
        _, rows = read_ndjson(out / "responses.ndjson")
        assert [row["input_tokens"] for row in rows] == simple
