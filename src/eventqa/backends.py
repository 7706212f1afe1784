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
import json
import logging
import math
import os
import re
import time
from collections import namedtuple
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import closing
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from . import EventQAError, manifest
from .graphcore import (
    CausalGraph,
    QueryKind,
    StructuredQuery,
    VerbalizationParseError,
    graph_from_sentences,
    oracle_answer,
)
from .manifest import INTEGER, NUMBER, STRING, Reader, one_of
from .promptkit import count_tokens
from .vocab import COUNT, PROMPT_ROW, RESPONSE_ROW, Answer, output_budget

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "TAGEQA_API_KEY"

DEFAULT_CONTEXT_LIMIT = 16384


class BackendError(EventQAError):
    pass


class MockFixtureError(BackendError):
    pass


class ContextOverflowError(BackendError):
    pass


class BackendKind(str, Enum):
    HTTP_CHAT = "http_chat"
    MOCK = "mock"
    ORACLE = "oracle"


class RetryPolicy(NamedTuple):
    max_attempts: int = 5
    base_backoff: float = 0.5


def _check_keys(cls: type, raw: dict, where: str) -> None:
    unknown = sorted(set(raw) - set(cls._fields))
    if unknown:
        raise BackendError(f"{where}: unknown config keys {', '.join(unknown)}")


# The JSON type of each config value; a spec reads as the dict of the values present.
_RETRY_VALUES = Reader(RetryPolicy, {"max_attempts": INTEGER, "base_backoff": NUMBER})
_SPEC_VALUES = Reader(
    dict,
    {
        "name": STRING,
        "kind": one_of(BackendKind),
        "model_name": STRING,
        "endpoint": STRING,
        "context_limit": INTEGER,
        "max_concurrency": INTEGER,
        "retry_policy": ((dict,), "a JSON object", _RETRY_VALUES),
        "api_key_env": STRING,
        "request_timeout": NUMBER,
        "fixtures_path": ((str, type(None)), "a string or null", None),
    },
)


_SPEC_DEFAULTS = {
    "model_name": "",
    "endpoint": "",
    "context_limit": DEFAULT_CONTEXT_LIMIT,
    "max_concurrency": 4,
    "retry_policy": RetryPolicy(),
    "api_key_env": DEFAULT_API_KEY_ENV,
    "request_timeout": 60.0,
    "fixtures_path": None,
}


class BackendSpec(namedtuple("BackendSpec", ["name", "kind", *_SPEC_DEFAULTS], defaults=_SPEC_DEFAULTS.values())):
    """A backend's name and ``BackendKind``, then the settings in ``_SPEC_DEFAULTS``, checked when it is made."""

    def __new__(cls, *args, **kwargs) -> "BackendSpec":
        spec = super().__new__(cls, *args, **kwargs)
        if spec.context_limit <= 0:
            raise BackendError(f"backend {spec.name!r}: context_limit must be positive")
        if spec.max_concurrency < 1:
            raise BackendError(f"backend {spec.name!r}: max_concurrency must be at least 1")
        if spec.retry_policy.max_attempts < 1:
            raise BackendError(f"backend {spec.name!r}: retry_policy.max_attempts must be at least 1")
        if not 0 <= spec.retry_policy.base_backoff < math.inf:  # also rejects NaN
            raise BackendError(f"backend {spec.name!r}: retry_policy.base_backoff must be finite and non-negative")
        # requests refuses any other URL on every attempt, so each prompt would wait out every back-off.
        if spec.kind is BackendKind.HTTP_CHAT and not spec.endpoint.lower().startswith(("http://", "https://")):
            raise BackendError(f"backend {spec.name!r}: endpoint must be an http(s):// URL, got {spec.endpoint!r}")
        return spec

    @classmethod
    def from_dict(cls, raw: dict) -> "BackendSpec":
        """Build a spec from a config entry; unknown keys and mistyped values are rejected."""
        where = f"backend {raw.get('name')!r}"
        _check_keys(cls, raw, where)
        if isinstance(raw.get("retry_policy"), dict):
            _check_keys(RetryPolicy, raw["retry_policy"], f"retry_policy of {where}")
        try:
            values = _SPEC_VALUES.read(raw, required=False)
        except manifest.ManifestError as exc:
            raise BackendError(f"{where}: {exc}") from None
        if "kind" not in values:
            raise BackendError(f"{where}: missing 'kind'")
        return cls(**values)

    @functools.cached_property
    def fixtures(self) -> dict[str, str]:
        """Mock replies by prompt hash, read once; a missing or malformed file raises ``MockFixtureError``."""
        where = f"mock backend {self.name!r}"
        if not self.fixtures_path:
            raise MockFixtureError(f"{where} has no fixtures file")
        try:
            fixtures = json.loads(Path(self.fixtures_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise MockFixtureError(f"{where}: cannot read {self.fixtures_path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise MockFixtureError(f"{where}: {self.fixtures_path} is not valid JSON: {exc}") from None
        if not isinstance(fixtures, dict) or not all(isinstance(text, str) for text in fixtures.values()):
            raise MockFixtureError(f"{where}: {self.fixtures_path} must map prompt hashes to reply strings")
        return fixtures


class CompletionResponse(NamedTuple):
    raw_text: str
    input_tokens: int
    output_tokens: int
    latency: float
    attempt_count: int
    backend: str
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "raw_text": self.raw_text,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "latency": self.latency,
            "attempt_count": self.attempt_count,
            "backend": self.backend,
            "flags": list(self.flags),
        }


def prompt_fingerprint(prompt_text: str) -> str:
    """Content hash used to key mock fixtures."""
    return manifest.sha256(prompt_text.encode("utf-8")).hexdigest()


# --- oracle question grammar ---------------------------------------------------

_Q_CAUSE = re.compile(r'^Did "(.+?)" cause "(.+?)"\?$')
_Q_BLOCK = re.compile(r'^Did "(.+?)" block "(.+?)"\?$')
_Q_AFTER = re.compile(r'^Did "(.+?)" happen after "(.+?)"\?$')
_Q_OCCUR = re.compile(r'^Did "(.+?)" (?:happen|occur)\?$')


def _section(text: str, header: str, end: str) -> str | None:
    """The text between the first ``header`` in ``text`` and the first ``end`` after it; None if either is missing."""
    start = text.find(header)
    if start < 0:
        return None
    start += len(header)
    stop = text.find(end, start)
    return None if stop < 0 else text[start:stop]


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


# Six of the nine configurations of an instance carry the same graph section
# and ask the same question, so a batch sorted by instance finds each
# (section, question) pair here on all but its first visit.
ORACLE_REPLY_CACHE_SIZE = 1024

# The longest wait between two attempts, a server's Retry-After included.
MAX_RETRY_WAIT = 60.0


@functools.lru_cache(maxsize=ORACLE_REPLY_CACHE_SIZE)
def _section_reply(section: str, question: str) -> tuple[str, tuple[str, ...]]:
    """The oracle's (reply, flags) for ``question`` about the graph ``section`` verbalizes.

    A section that does not parse raises ``VerbalizationParseError``,
    which ``lru_cache`` does not keep, so it is raised anew on every call.
    """
    graph = graph_from_sentences(section.splitlines())
    parsed = parse_oracle_question(question, graph)
    if parsed is None:
        return Answer.NO.value, ("unparsed",)
    query, negate = parsed
    answer = oracle_answer(graph, query)
    if negate:
        answer = Answer.NO if answer is Answer.YES else Answer.YES
    return answer.value, ()


def _oracle_reply(prompt_text: str) -> tuple[str, tuple[str, ...]]:
    # A graph section ends at a blank line, or at the prompt's last newline.
    graph_section = _section(prompt_text + "\n", "### Graph ###\n", "\n\n")
    if graph_section is None:
        return Answer.NO.value, ("no_graph",)
    question = _section(prompt_text, "### Question ###\n", "\n### Answer ###")
    if question is None:
        return Answer.NO.value, ("unparsed",)
    try:
        return _section_reply(graph_section, question.strip())
    except VerbalizationParseError:
        return Answer.NO.value, ("unparsed",)


# --- completion ----------------------------------------------------------------


def _retry_after(header: str | None, backoff: float) -> float:
    """Seconds a Retry-After header asks for; ``backoff`` unless it is a finite, non-negative number."""
    try:
        delay = float(header)
    except (TypeError, ValueError):
        return backoff
    return delay if math.isfinite(delay) and delay >= 0 else backoff


_USAGE = Reader(dict, {"prompt_tokens": COUNT, "completion_tokens": COUNT})


def _read_chat_payload(payload, prompt_tokens: int) -> tuple[str, int, int]:
    """(reply text, prompt tokens, reply tokens) of a chat-completions payload; ``ValueError`` if it is malformed.

    A count the server leaves out is filled in: ``prompt_tokens`` for the
    prompt, ``count_tokens`` of the reply for the reply.
    """
    try:
        content = payload["choices"][0]["message"]["content"]
        usage = payload.get("usage") or {}
    except (KeyError, IndexError, TypeError, AttributeError):
        raise ValueError("no choices[0].message.content") from None
    raw_text = "" if content is None else content
    if not isinstance(raw_text, str):
        raise ValueError(f"content is not a string: {content!r}")
    try:
        counts = _USAGE.read(usage, required=False)
    except manifest.ManifestError as exc:
        raise ValueError(f"usage: {exc}") from None
    if "completion_tokens" not in counts:
        counts["completion_tokens"] = count_tokens(raw_text)
    return raw_text, counts.get("prompt_tokens", prompt_tokens), counts["completion_tokens"]


def _http_complete(spec: BackendSpec, prompt_text: str, prompt_tokens: int, max_output_tokens: int) -> CompletionResponse:
    import requests  # here, not at module top, so stages that make no HTTP request do not load it

    url = spec.endpoint if spec.endpoint.endswith("/chat/completions") else spec.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(spec.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": spec.model_name,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": 0.0,  # greedy decoding, not configurable
        "max_tokens": max_output_tokens,
    }

    started = time.monotonic()
    policy = spec.retry_policy
    last_error = "exhausted retries"
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            time.sleep(min(delay, MAX_RETRY_WAIT))  # the wait the previous attempt settled on
        delay = policy.base_backoff * 2 ** (attempt - 1)
        try:
            response = requests.post(url, headers=headers, json=body, timeout=spec.request_timeout)
        except requests.RequestException as exc:
            last_error = str(exc)
            continue

        if response.status_code == 429 or response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            if response.status_code in (429, 503):  # the two that may carry Retry-After (RFC 9110 §10.2.3)
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
            raw_text, input_tokens, output_tokens = _read_chat_payload(payload, prompt_tokens)
        except ValueError as exc:
            raise BackendError(f"{spec.name}: malformed chat-completions payload ({exc})") from None
        return CompletionResponse(
            raw_text=raw_text,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            latency=time.monotonic() - started,
            attempt_count=attempt,
            backend=spec.name,
        )
    raise BackendError(f"{spec.name}: request failed after {policy.max_attempts} attempts ({last_error})")


def complete(spec: BackendSpec, prompt_text: str, prompt_tokens: int, max_output_tokens: int) -> CompletionResponse:
    """Run one completion of a prompt of ``prompt_tokens`` tokens against a backend.

    Deterministic backends (mock, oracle) report zero latency so manifests
    stay byte-stable across runs.
    """
    if prompt_tokens > spec.context_limit:
        raise ContextOverflowError(
            f"prompt of {prompt_tokens} tokens exceeds {spec.name} context limit {spec.context_limit}"
        )

    if spec.kind is BackendKind.HTTP_CHAT:
        return _http_complete(spec, prompt_text, prompt_tokens, max_output_tokens)

    if spec.kind is BackendKind.MOCK:
        key = prompt_fingerprint(prompt_text)
        fixtures = spec.fixtures
        if key not in fixtures:
            raise MockFixtureError(f"no mock fixture for prompt hash {key}")
        raw_text = fixtures[key]
        return CompletionResponse(
            raw_text=raw_text,
            input_tokens=prompt_tokens,
            output_tokens=count_tokens(raw_text),
            latency=0.0,
            attempt_count=1,
            backend=spec.name,
        )

    raw_text, flags = _oracle_reply(prompt_text)
    return CompletionResponse(
        raw_text=raw_text,
        input_tokens=prompt_tokens,
        output_tokens=count_tokens(raw_text),
        latency=0.0,
        attempt_count=1,
        backend=spec.name,
        flags=flags,
    )


# --- batched runs ----------------------------------------------------------------


class BatchFailure(NamedTuple):
    instance_id: str
    config: str
    error: str


class BatchResult(NamedTuple):
    completed: int  # records in the manifest, resumed ones included
    failures: list[BatchFailure]


def _key(row) -> tuple[str, str]:
    """The (instance_id, config selector) of a ``PROMPT_ROW`` or ``RESPONSE_ROW`` record."""
    return row.instance_id, row.config.selector


def _check_batch(spec: BackendSpec, prompts: Callable[[], Iterator]) -> None:
    """Refuse a malformed row, an empty batch, a repeated (instance_id, config) pair, or a prompt over the context limit.

    ``prompts()`` reads the batch afresh. A mock backend's fixtures file is
    checked first. In a batch sorted by key, as ``prompts.ndjson`` is, a
    repeat shows as two equal neighbours, so the check holds nothing per
    row; a batch in any other order is read again into a set of its keys.
    """
    if spec.kind is BackendKind.MOCK:
        spec.fixtures  # raises on a missing or malformed file
    size, last, in_order, oversized = 0, (), True, []
    for size, prompt in enumerate(prompts(), start=1):
        key = _key(prompt)
        in_order, last = in_order and key > last, key
        if prompt.token_count > spec.context_limit:
            oversized.append(prompt.token_count)
    if not size:
        raise BackendError("run_batch called with no prompts")
    if not in_order and len(set(map(_key, prompts()))) < size:
        raise BackendError("duplicate (instance_id, config) pairs in prompt batch")
    if oversized:
        raise ContextOverflowError(
            f"{len(oversized)} prompts exceed the {spec.context_limit}-token context limit of {spec.name} "
            f"(largest: {max(oversized)})"
        )


def _dispatch(spec: BackendSpec, run_one: Callable, pending: Iterable) -> Iterator[tuple[object, Callable[[], dict]]]:
    """Yield (row, result getter) pairs; calling the getter returns the record or raises.

    Deterministic backends are pure computation, which threads cannot
    overlap, so they run inline in row order. HTTP requests wait on the
    network and go through a pool of ``max_concurrency`` workers, yielded
    in completion order; at most twice that many are submitted and not yet
    yielded, so the pool never holds more than a window of the batch.
    """
    if spec.kind is not BackendKind.HTTP_CHAT:
        for row in pending:
            yield row, functools.partial(run_one, row)
        return
    pending = iter(pending)
    with ThreadPoolExecutor(max_workers=spec.max_concurrency) as pool:
        in_flight = {pool.submit(run_one, row): row for row in islice(pending, 2 * spec.max_concurrency)}
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                yield in_flight.pop(future), future.result
                for row in islice(pending, 1):
                    in_flight[pool.submit(run_one, row)] = row


def run_batch(
    spec: BackendSpec,
    rows: Collection[dict],
    manifest_path: str | Path,
    header: dict,
) -> BatchResult:
    """Complete the prompts of a batch of prompts-manifest rows, inline or through a worker pool (see ``_dispatch``).

    ``rows`` are records as ``manifest.read_ndjson`` streams them from
    ``prompts.ndjson``, each pass reading them through ``vocab.PROMPT_ROW``.
    They are iterated twice, so they must be a collection, not an iterator:
    a first pass checks the batch (see ``_check_batch``) before any request
    is sent or any file is written, and a second pass builds each request
    from its row and streams it to the backend. Apart from the keys a
    resumed manifest already holds, nothing is kept per prompt. Each row's
    stored ``token_count`` is its prompt's count; no prompt is counted again.

    The manifest is the unit of resumability: completed records are
    flushed line by line as they finish, and on restart a torn last line is
    cut off and any pair already present (read through ``vocab.RESPONSE_ROW``)
    is skipped. Once every request has succeeded the file holds its records
    sorted by (instance_id, config), so the final bytes do not depend on
    completion order; it is rewritten only when the records were written
    out of that order. Individual failures do not stop the batch; they are
    collected and reported together.
    """
    if iter(rows) is rows:
        raise BackendError("run_batch needs a collection of prompt rows it can iterate twice, not an iterator")
    prompts = functools.partial(manifest.read_rows, PROMPT_ROW, rows, getattr(rows, "path", "prompt batch"))
    _check_batch(spec, prompts)

    manifest_path = Path(manifest_path)
    done: set[tuple[str, str]] = set()
    last: tuple = ()  # the key of the last record in the file
    in_order = True
    if manifest_path.exists():
        existing_header, records = manifest.resume_ndjson(manifest_path)
        if existing_header != header:
            raise BackendError(
                f"manifest {manifest_path} was produced by a different run configuration; refusing to resume"
            )
        for response in manifest.read_rows(RESPONSE_ROW, records, manifest_path):
            key = _key(response)
            in_order, last = in_order and key > last, key
            done.add(key)
    else:
        manifest.write_ndjson(manifest_path, header, [])

    def _run_one(prompt) -> dict:
        record = complete(spec, prompt.prompt_text, prompt.token_count, output_budget(prompt.config.strategy)).to_dict()
        record["instance_id"], record["config"] = _key(prompt)
        return record

    pending = (prompt for prompt in prompts() if _key(prompt) not in done)
    failures: list[BatchFailure] = []
    completed = len(done)
    with open(manifest_path, "a", encoding="utf-8") as sink, closing(_dispatch(spec, _run_one, pending)) as outcomes:
        for prompt, result in outcomes:
            try:
                record = result()
            except BackendError as exc:
                failure = BatchFailure(*_key(prompt), str(exc))
                logger.error("request failed for %s/%s: %s", failure.instance_id, failure.config, exc)
                failures.append(failure)
                continue
            key = _key(prompt)
            in_order, last = in_order and key > last, key
            sink.write(manifest.canonical_json(record) + "\n")
            sink.flush()
            completed += 1

    if not failures and not in_order:
        manifest.sort_ndjson(manifest_path, lambda record: (record["instance_id"], record["config"]))
    return BatchResult(completed=completed, failures=sorted(failures, key=lambda f: (f.instance_id, f.config)))
