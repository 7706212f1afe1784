"""Completion backends behind a single interface.

Three kinds. ``HTTP_CHAT`` speaks the OpenAI-compatible chat-completions
dialect (one user message, greedy decoding) with exponential backoff on
transient failures. ``MOCK`` replays scripted responses keyed by a content
hash of the prompt, for fixtures and offline tests. ``ORACLE`` is the
non-LLM baseline: it re-parses the verbalized graph out of the prompt,
matches the question against a small fixed grammar, and answers by graph
reasoning alone. Questions outside the grammar get the fixed answer "no"
and an ``unparsed`` flag; they are never dropped.

API keys come from the environment variable named in the backend spec
(default ``TAGEQA_API_KEY``) and are never written to manifests.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import manifest
from .corpus import Answer
from .graphcore import (
    CausalGraph,
    QueryKind,
    StructuredQuery,
    VerbalizationParseError,
    graph_from_sentences,
    oracle_answer,
)
from .promptkit import PromptRecord, Strategy, count_tokens

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "TAGEQA_API_KEY"

# Named context-limit defaults for the three model classes.
CONTEXT_LIMITS = {"t5": 1024, "qwen": 2048, "gpt": 16384}

# Answer budget: a handful of tokens for bare labels, headroom for traces.
OUTPUT_BUDGETS = {Strategy.ZERO: 8, Strategy.FEW: 8, Strategy.COT: 256}


class BackendError(Exception):
    pass


class MockFixtureError(BackendError):
    pass


class ContextOverflowError(BackendError):
    pass


class BackendKind(str, Enum):
    HTTP_CHAT = "http_chat"
    MOCK = "mock"
    ORACLE = "oracle"


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    base_backoff: float = 0.5


def _check_keys(cls: type, raw: dict, where: str) -> None:
    allowed = {f.name for f in fields(cls) if not f.name.startswith("_")}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise BackendError(f"{where}: unknown config keys {', '.join(unknown)}")


_STRING = (str, "a string")
_INTEGER = (int, "an integer")
_NUMBER = ((int, float), "a number")

# The JSON type of each config value other than ``kind``.
_SPEC_VALUE_TYPES = {
    "name": _STRING,
    "model_name": _STRING,
    "endpoint": _STRING,
    "context_limit": _INTEGER,
    "tokenizer": _STRING,
    "max_concurrency": _INTEGER,
    "retry_policy": (dict, "a JSON object"),
    "api_key_env": _STRING,
    "request_timeout": _NUMBER,
    "fixtures_path": ((str, type(None)), "a string or null"),
}
_RETRY_VALUE_TYPES = {"max_attempts": _INTEGER, "base_backoff": _NUMBER}


def _check_values(types: dict[str, tuple], raw: dict, where: str) -> None:
    for key, (accepted, described) in types.items():
        if key not in raw:
            continue
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise BackendError(f"{where}: {key} must be {described}, got {value!r}")


@dataclass
class BackendSpec:
    name: str
    kind: BackendKind
    model_name: str = ""
    endpoint: str = ""
    context_limit: int = CONTEXT_LIMITS["gpt"]
    tokenizer: str = "simple"
    max_concurrency: int = 4
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    api_key_env: str = DEFAULT_API_KEY_ENV
    request_timeout: float = 60.0
    fixtures_path: str | None = None
    _fixtures: dict[str, str] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.context_limit <= 0:
            raise BackendError(f"backend {self.name!r}: context_limit must be positive")
        if self.max_concurrency < 1:
            raise BackendError(f"backend {self.name!r}: max_concurrency must be at least 1")
        if self.retry_policy.max_attempts < 1:
            raise BackendError(f"backend {self.name!r}: retry_policy.max_attempts must be at least 1")
        if not 0 <= self.retry_policy.base_backoff < math.inf:  # also rejects NaN
            raise BackendError(f"backend {self.name!r}: retry_policy.base_backoff must be finite and non-negative")

    @classmethod
    def from_dict(cls, raw: dict) -> "BackendSpec":
        """Build a spec from a config entry; unknown and private keys and mistyped values are rejected."""
        where = f"backend {raw.get('name')!r}"
        _check_keys(cls, raw, where)
        _check_values(_SPEC_VALUE_TYPES, raw, where)
        raw = dict(raw)
        if "kind" not in raw:
            raise BackendError(f"{where}: missing 'kind'")
        try:
            raw["kind"] = BackendKind(raw["kind"])
        except ValueError:
            kinds = ", ".join(kind.value for kind in BackendKind)
            raise BackendError(f"{where}: unknown kind {raw['kind']!r} (expected one of {kinds})") from None
        if "retry_policy" in raw:
            _check_keys(RetryPolicy, raw["retry_policy"], f"retry_policy of {where}")
            _check_values(_RETRY_VALUE_TYPES, raw["retry_policy"], f"retry_policy of {where}")
            raw["retry_policy"] = RetryPolicy(**raw["retry_policy"])
        return cls(**raw)

    def fixtures(self) -> dict[str, str]:
        if self._fixtures is None:
            if not self.fixtures_path:
                raise MockFixtureError(f"mock backend {self.name!r} has no fixtures file")
            self._fixtures = json.loads(Path(self.fixtures_path).read_text(encoding="utf-8"))
        return self._fixtures


@dataclass(frozen=True)
class CompletionRequest:
    prompt_text: str
    max_output_tokens: int
    temperature: float = field(default=0.0, init=False)  # greedy decoding, not configurable
    prompt_tokens: int | None = None  # count under the backend's tokenizer; None means count here


@dataclass(frozen=True)
class CompletionResponse:
    raw_text: str
    input_tokens: int
    output_tokens: int
    latency: float
    attempt_count: int
    backend: str
    instance_id: str = ""
    config: str = ""
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "config": self.config,
            "raw_text": self.raw_text,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "latency": self.latency,
            "attempt_count": self.attempt_count,
            "backend": self.backend,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CompletionResponse":
        return cls(
            raw_text=raw["raw_text"],
            input_tokens=int(raw["input_tokens"]),
            output_tokens=int(raw["output_tokens"]),
            latency=float(raw["latency"]),
            attempt_count=int(raw["attempt_count"]),
            backend=raw["backend"],
            instance_id=raw.get("instance_id", ""),
            config=raw.get("config", ""),
            flags=tuple(raw.get("flags", ())),
        )


def prompt_fingerprint(prompt_text: str) -> str:
    """Content hash used to key mock fixtures."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


def output_budget(strategy: Strategy) -> int:
    return OUTPUT_BUDGETS[strategy]


# --- oracle question grammar ---------------------------------------------------

_QUESTION_SECTION_RE = re.compile(r"### Question ###\n(.*?)\n### Answer ###", re.DOTALL)
_GRAPH_SECTION_RE = re.compile(r"### Graph ###\n(.*?)(?:\n\n|\n\Z)", re.DOTALL)

_Q_CAUSE = re.compile(r'^Did "(.+?)" cause "(.+?)"\?$')
_Q_BLOCK = re.compile(r'^Did "(.+?)" block "(.+?)"\?$')
_Q_AFTER = re.compile(r'^Did "(.+?)" happen after "(.+?)"\?$')
_Q_OCCUR = re.compile(r'^Did "(.+?)" (?:happen|occur)\?$')


def _resolve_label(span: str, graph: CausalGraph) -> str | None:
    labels = [node.label for node in graph.nodes]
    if span in labels:
        return span
    prefixed = [label for label in labels if label.startswith(span)]
    if len(prefixed) == 1:
        return prefixed[0]
    containing = [label for label in labels if span in label]
    if len(containing) == 1:
        return containing[0]
    return None


def parse_oracle_question(question: str, graph: CausalGraph) -> tuple[StructuredQuery, bool] | None:
    """Map a grammar question to (query, negate). None means unparsed.

    "Did X happen after Y?" asks whether X went ahead despite Y, so it maps
    to a direct-blocking test of Y against X with the answer negated.
    """
    for pattern, builder in (
        (_Q_CAUSE, lambda a, b: (StructuredQuery(QueryKind.CAUSES, a, b), False)),
        (_Q_BLOCK, lambda a, b: (StructuredQuery(QueryKind.DIRECT_BLOCKS, a, b), False)),
        (_Q_AFTER, lambda a, b: (StructuredQuery(QueryKind.DIRECT_BLOCKS, b, a), True)),
    ):
        match = pattern.match(question)
        if match:
            subject = _resolve_label(match.group(1), graph)
            obj = _resolve_label(match.group(2), graph)
            if subject is None or obj is None:
                return None
            return builder(subject, obj)
    match = _Q_OCCUR.match(question)
    if match:
        subject = _resolve_label(match.group(1), graph)
        if subject is None:
            return None
        return StructuredQuery(QueryKind.OCCURRED, subject), False
    return None


# Every configuration of an instance carries the same graph section, so a
# batch sorted by instance finds each section here on all but its first visit.
ORACLE_GRAPH_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=ORACLE_GRAPH_CACHE_SIZE)
def _graph_of_section(section: str) -> CausalGraph:
    """The (frozen) graph a prompt's graph section verbalizes; parse errors are raised anew each call."""
    return graph_from_sentences(section.splitlines())


def _oracle_reply(prompt_text: str) -> tuple[str, tuple[str, ...]]:
    graph_match = _GRAPH_SECTION_RE.search(prompt_text)
    if graph_match is None:
        return Answer.NO.value, ("no_graph",)
    question_match = _QUESTION_SECTION_RE.search(prompt_text)
    if question_match is None:
        return Answer.NO.value, ("unparsed",)
    try:
        graph = _graph_of_section(graph_match.group(1))
    except VerbalizationParseError:
        return Answer.NO.value, ("unparsed",)
    parsed = parse_oracle_question(question_match.group(1).strip(), graph)
    if parsed is None:
        return Answer.NO.value, ("unparsed",)
    query, negate = parsed
    answer = oracle_answer(graph, query)
    if negate:
        answer = Answer.NO if answer is Answer.YES else Answer.YES
    return answer.value, ()


# --- completion ----------------------------------------------------------------


def _retry_after(header: str | None, backoff: float) -> float:
    """Seconds a Retry-After header asks for; ``backoff`` unless it is a finite, non-negative number."""
    try:
        delay = float(header)
    except (TypeError, ValueError):
        return backoff
    return delay if math.isfinite(delay) and delay >= 0 else backoff


def _http_complete(spec: BackendSpec, request: CompletionRequest, prompt_tokens: int) -> CompletionResponse:
    import requests  # here, not at module top, so stages that make no HTTP request do not load it

    url = spec.endpoint if spec.endpoint.endswith("/chat/completions") else spec.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(spec.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": spec.model_name,
        "messages": [{"role": "user", "content": request.prompt_text}],
        "temperature": request.temperature,
        "max_tokens": request.max_output_tokens,
    }

    started = time.monotonic()
    policy = spec.retry_policy
    last_error = "exhausted retries"
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            time.sleep(delay)  # the wait the previous attempt settled on
        delay = policy.base_backoff * 2 ** (attempt - 1)
        try:
            response = requests.post(url, headers=headers, json=body, timeout=spec.request_timeout)
        except requests.RequestException as exc:
            last_error = str(exc)
            continue

        if response.status_code == 429 or response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            if response.status_code == 429:
                delay = _retry_after(response.headers.get("Retry-After"), delay)
            continue
        if response.status_code != 200:
            raise BackendError(f"{spec.name}: HTTP {response.status_code}: {response.text[:500]}")

        try:
            payload = response.json()
        except ValueError:
            last_error = "response body is not JSON"
            continue
        try:
            raw_text = payload["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError):
            raise BackendError(f"{spec.name}: malformed chat-completions payload") from None
        usage = payload.get("usage") or {}
        return CompletionResponse(
            raw_text=raw_text,
            input_tokens=int(usage.get("prompt_tokens", prompt_tokens)),
            output_tokens=int(usage.get("completion_tokens", count_tokens(raw_text, spec.tokenizer))),
            latency=time.monotonic() - started,
            attempt_count=attempt,
            backend=spec.name,
        )
    raise BackendError(f"{spec.name}: request failed after {policy.max_attempts} attempts ({last_error})")


def complete(spec: BackendSpec, request: CompletionRequest) -> CompletionResponse:
    """Run one completion against a backend.

    Deterministic backends (mock, oracle) report zero latency so manifests
    stay byte-stable across runs. The prompt is counted under the spec's
    tokenizer only when the request carries no ``prompt_tokens``.
    """
    prompt_tokens = request.prompt_tokens
    if prompt_tokens is None:
        prompt_tokens = count_tokens(request.prompt_text, spec.tokenizer)
    if prompt_tokens > spec.context_limit:
        raise ContextOverflowError(
            f"prompt of {prompt_tokens} tokens exceeds {spec.name} context limit {spec.context_limit}"
        )

    if spec.kind is BackendKind.HTTP_CHAT:
        return _http_complete(spec, request, prompt_tokens)

    if spec.kind is BackendKind.MOCK:
        key = prompt_fingerprint(request.prompt_text)
        fixtures = spec.fixtures()
        if key not in fixtures:
            raise MockFixtureError(f"no mock fixture for prompt hash {key}")
        raw_text = fixtures[key]
        return CompletionResponse(
            raw_text=raw_text,
            input_tokens=prompt_tokens,
            output_tokens=count_tokens(raw_text, spec.tokenizer),
            latency=0.0,
            attempt_count=1,
            backend=spec.name,
        )

    raw_text, flags = _oracle_reply(request.prompt_text)
    return CompletionResponse(
        raw_text=raw_text,
        input_tokens=prompt_tokens,
        output_tokens=count_tokens(raw_text, spec.tokenizer),
        latency=0.0,
        attempt_count=1,
        backend=spec.name,
        flags=flags,
    )


# --- batched runs ----------------------------------------------------------------


@dataclass(frozen=True)
class BatchFailure:
    instance_id: str
    config: str
    error: str


@dataclass(frozen=True)
class BatchResult:
    responses: list[CompletionResponse]
    failures: list[BatchFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _record_key(record: dict) -> tuple[str, str]:
    return record["instance_id"], record["config"]


def _dispatch(
    spec: BackendSpec, run_one: Callable[[PromptRecord], dict], pending: list[PromptRecord]
) -> Iterator[tuple[PromptRecord, Callable[[], dict]]]:
    """Yield (prompt, result getter) pairs; calling the getter returns the record or raises.

    Deterministic backends are pure computation, which threads cannot
    overlap, so they run inline in prompt order. HTTP requests wait on the
    network and go through a pool of ``max_concurrency`` workers, yielded
    in completion order.
    """
    if spec.kind is not BackendKind.HTTP_CHAT:
        for prompt in pending:
            yield prompt, functools.partial(run_one, prompt)
        return
    with ThreadPoolExecutor(max_workers=spec.max_concurrency) as pool:
        futures = {pool.submit(run_one, prompt): prompt for prompt in pending}
        for future in as_completed(futures):
            yield futures[future], future.result


def run_batch(
    spec: BackendSpec,
    prompts: Sequence[PromptRecord],
    manifest_path: str | Path,
    header: dict,
    *,
    max_output_tokens: int | None = None,
) -> BatchResult:
    """Complete a batch of prompts, inline or through a worker pool (see ``_dispatch``).

    A prompt's stored ``token_count`` is reused when it was made under the
    spec's tokenizer. The manifest is the unit of resumability: completed
    records are flushed line by line as they finish, and on restart any
    (instance, config) pair already present is skipped. Once every request
    has succeeded the file is rewritten sorted by (instance_id, config) so
    the final bytes do not depend on completion order. Individual failures
    do not stop the batch; they are collected and reported together.
    """
    if not prompts:
        raise BackendError("run_batch called with no prompts")
    keys = [(p.instance_id, p.config.selector) for p in prompts]
    if len(set(keys)) != len(keys):
        raise BackendError("duplicate (instance_id, config) pairs in prompt batch")

    manifest_path = Path(manifest_path)
    completed: dict[tuple[str, str], dict] = {}
    if manifest_path.exists():
        existing_header, records = manifest.read_ndjson(manifest_path, tolerate_partial=True)
        if existing_header != header:
            raise BackendError(
                f"manifest {manifest_path} was produced by a different run configuration; refusing to resume"
            )
        for record in records:
            completed[_record_key(record)] = record
    pending = [p for p in prompts if (p.instance_id, p.config.selector) not in completed]

    failures: list[BatchFailure] = []
    if manifest_path.exists():
        # Rewrite up front so a partial trailing line never survives.
        manifest.write_ndjson(manifest_path, header, completed.values())
    else:
        manifest.write_ndjson(manifest_path, header, [])

    def _run_one(prompt: PromptRecord) -> dict:
        budget = max_output_tokens if max_output_tokens is not None else output_budget(prompt.config.strategy)
        request = CompletionRequest(
            prompt_text=prompt.prompt_text,
            max_output_tokens=budget,
            prompt_tokens=prompt.count_under(spec.tokenizer),
        )
        record = complete(spec, request).to_dict()
        record["instance_id"] = prompt.instance_id
        record["config"] = prompt.config.selector
        return record

    if pending:
        with open(manifest_path, "a", encoding="utf-8") as sink, closing(_dispatch(spec, _run_one, pending)) as outcomes:
            for prompt, result in outcomes:
                try:
                    record = result()
                except BackendError as exc:
                    logger.error("request failed for %s/%s: %s", prompt.instance_id, prompt.config.selector, exc)
                    failures.append(BatchFailure(prompt.instance_id, prompt.config.selector, str(exc)))
                    continue
                completed[_record_key(record)] = record
                sink.write(manifest.canonical_json(record) + "\n")
                sink.flush()

    if not failures:
        ordered = [completed[key] for key in sorted(completed)]
        manifest.write_ndjson(manifest_path, header, ordered)
    responses = [CompletionResponse.from_dict(completed[key]) for key in sorted(completed)]
    return BatchResult(responses=responses, failures=sorted(failures, key=lambda f: (f.instance_id, f.config)))
