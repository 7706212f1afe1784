"""Labels, categories, configurations, prompt sections, the token counter and row tables that every stage shares.

Its readers of a dataset record's values (``_text``, ``_id``, ``_named``)
serve ``corpus`` and ``score``'s ``read_labels`` alike. A prompt row's
fields are spelled only in ``_PROMPT_FIELDS``, which makes ``PromptRecord``:
``build`` writes it through ``manifest.as_row``, and ``run`` and ``cost``
read it through ``PROMPT_ROW``. It imports only ``manifest``.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

from . import EventQAError
from .manifest import STRING, ManifestError, Reader, _shown, encodes_utf8, kept, one_of, read_config


class Answer(str, Enum):
    YES = "yes"
    NO = "no"


class QuestionCategory(str, Enum):
    """The 13 semantic question categories used for per-cluster scoring."""

    CAUSAL = "causal"
    COUNTERFACTUAL = "counterfactual"
    EVENT = "event"
    EXISTENTIAL = "existential"
    FUTURE = "future"
    NEGATIVE = "negative"
    OCCURRENCE = "occurrence"
    PAST = "past"
    POSITIVE = "positive"
    POSSIBLE = "possible"
    PRESENT = "present"
    TEMPORAL_CONFLICT = "temporal_conflict"
    UNKNOWN = "unknown"


ALL_CATEGORIES: tuple[QuestionCategory, ...] = tuple(QuestionCategory)


class GraphKind(str, Enum):
    INSTANCE = "instance"
    SCHEMA = "schema"


# Canonical field names; a schema descriptor overrides any subset of these
# with the names used by a particular dump.
DEFAULT_SCHEMA: dict = {
    "instance_id": "instance_id",
    "passage": "passage",
    "question": "question",
    "answer": "answer",
    "category": "category",
    "graphs": "graphs",
    "graph_fields": {"graph_id": "graph_id", "kind": "kind", "nodes": "nodes", "edges": "edges"},
    "node_fields": {"id": "id", "label": "label"},
    "edge_fields": {"source": "source", "target": "target", "relation": "relation"},
}


def _over(defaults: dict) -> Callable[..., dict]:
    """A ``make`` that merges the keys a schema file gives over ``defaults``."""
    return lambda **given: {**defaults, **given}


def _names(defaults: dict) -> tuple:
    return (dict,), "a JSON object", Reader(_over(defaults), dict.fromkeys(defaults, STRING), closed=True)


# A schema file: any subset of ``DEFAULT_SCHEMA``'s keys, each mapped to a string, nested tables likewise.
SCHEMA = Reader(
    _over(DEFAULT_SCHEMA),
    {key: _names(value) if type(value) is dict else STRING for key, value in DEFAULT_SCHEMA.items()},
    closed=True,
)


class CorpusError(EventQAError):
    """Base class for dataset-level failures."""


class DatasetFormatError(CorpusError):
    """Raised for a schema file ``SCHEMA`` refuses, and in strict mode for a record the dataset reader rejects."""


def load_schema(path: str | Path) -> dict:
    """The schema a descriptor file gives, merged over the defaults; a bad file raises ``DatasetFormatError``."""
    try:
        return SCHEMA.read(read_config(path, "schema file", DatasetFormatError), required=False)
    except ManifestError as exc:
        raise DatasetFormatError(f"schema file {path}: {exc}") from None


_TEXT = "a non-empty string that UTF-8 can encode"


def _text(value, field: str, described: str = _TEXT) -> str:
    """A non-empty JSON string that UTF-8 can encode: no lone surrogate, as ``"\\ud800"`` or a non-UTF-8 byte gives."""
    if type(value) is str and value and encodes_utf8(value):
        return value
    raise ValueError(f"{field} must be {described}, got {_shown(value)}")


def _id(value, field: str) -> str:
    """An id: a text value, or a JSON integer (not a bool) read as its decimal string."""
    return str(value) if type(value) is int else _text(value, field, f"{_TEXT} or an integer")


def _named(enum: type[Enum], value, what: str):
    """The member of ``enum`` that a JSON string names, in any case."""
    if type(value) is str:
        try:
            return enum(value.lower())
        except ValueError:
            pass
    raise ValueError(f"unknown {what} {_shown(value)}")


Label = tuple[Answer, QuestionCategory]


def read_label(raw: dict, schema: dict) -> Label:
    """The gold answer and category of a raw dataset record; a missing, null or empty category is ``unknown``."""
    answer = _named(Answer, raw.get(schema["answer"]), "gold answer")
    category = raw.get(schema["category"])
    if category is None or category == "":
        return answer, QuestionCategory.UNKNOWN
    return answer, _named(QuestionCategory, category, "category")


def read_labels(path: str | Path, schema: dict = DEFAULT_SCHEMA) -> dict[str, Label | None]:
    """instance_id -> ``read_label`` of each dataset record, in one pass that parses no graph.

    A record that is no JSON object, or whose id (read by ``_id``, as ``build`` reads it) or label does not
    parse, gives none. An id that two records label differently maps to None, as only
    ``corpus.read_dataset``, which parses graphs, can tell which one it keeps.
    """
    labels: dict[str, Label | None] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line in handle:
            try:
                raw = json.loads(line.strip())  # a blank line fails here too
                if not isinstance(raw, dict):
                    continue
                instance_id = _id(raw.get(schema["instance_id"]), "instance_id")
                label = read_label(raw, schema)
            except (ValueError, RecursionError):  # RecursionError: JSON nested too deep
                continue
            if labels.setdefault(instance_id, label) != label:
                labels[instance_id] = None
    return labels


DEFAULT_DEMO_COUNT = 3


class PromptError(EventQAError):
    """Base class for prompt-stage failures."""


class Strategy(str, Enum):
    ZERO = "zero"
    FEW = "few"
    COT = "cot"


# Answer budget: a handful of tokens for bare labels, headroom for traces.
OUTPUT_BUDGETS = {Strategy.ZERO: 8, Strategy.FEW: 8, Strategy.COT: 256}


class Modality(str, Enum):
    TEXT = "text"
    GRAPH = "graph"
    TAG = "tag"


class PromptConfig(namedtuple("PromptConfig", "strategy modality")):
    """One cell of the strategy x modality matrix: a ``Strategy`` and a ``Modality``."""

    @cached_property
    def selector(self) -> str:
        return f"{self.strategy.value}-{self.modality.value}"

    @property
    def demo_count(self) -> int:
        """How many demonstrations a prompt shows: none zero-shot, ``DEFAULT_DEMO_COUNT`` otherwise."""
        return 0 if self.strategy is Strategy.ZERO else DEFAULT_DEMO_COUNT

    @property
    def includes_text(self) -> bool:
        return self.modality in (Modality.TEXT, Modality.TAG)

    @property
    def includes_graph(self) -> bool:
        return self.modality in (Modality.GRAPH, Modality.TAG)


_MODALITY_ALIASES = {"text": Modality.TEXT, "graph": Modality.GRAPH, "graphs": Modality.GRAPH, "tag": Modality.TAG}


@lru_cache(maxsize=64)
def parse_selector(selector: str) -> PromptConfig:
    """Parse a ``strategy-modality`` name like ``cot-tag`` into a config, shared by every parse of that name."""
    try:
        strategy_raw, modality_raw = selector.strip().lower().split("-", 1)
        return PromptConfig(strategy=Strategy(strategy_raw), modality=_MODALITY_ALIASES[modality_raw])
    except (ValueError, KeyError):
        raise PromptError(f"unknown configuration selector {selector!r}") from None


def all_configs() -> tuple[PromptConfig, ...]:
    """All nine configurations, strategies outer, modalities inner."""
    return tuple(PromptConfig(strategy=s, modality=m) for s in Strategy for m in Modality)


# --- manifest rows (see ``manifest.Reader``) ---------------------------------------

# The name manifests record for the one token counter.
TOKENIZER = "simple"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def count_tokens(text: str) -> int:
    """Count tokens: runs of word characters and each remaining non-space character, one apiece.

    It is a proxy: orderings between prompts are meaningful under it,
    absolute counts are not a model's.
    """
    return len(_TOKEN_RE.findall(text))


SECTION_INSTRUCTION = "Instruction"
SECTION_TEXT = "Text"
SECTION_GRAPH = "Graph"
SECTION_EXAMPLES = "Examples"
SECTION_QUESTION = "Question"
SECTION_ANSWER = "Answer"

# Every section's header. The oracle backend finds a
# prompt's graph and question through these, so they are spelled only here.
SECTION_HEADERS = {
    name: f"### {name} ###"
    for name in (SECTION_INSTRUCTION, SECTION_TEXT, SECTION_GRAPH, SECTION_EXAMPLES, SECTION_QUESTION, SECTION_ANSWER)
}


INSTANCE_ID = ((str,), "a non-empty string", lambda value: _text(value, "instance_id"))
COUNT = ((int,), "a non-negative integer", kept((0).__le__))
# A configuration of a prompt or prediction row, built once per value and shared (safe, as a config is frozen).
_CONFIG_FIELDS = {"strategy": one_of(Strategy), "modality": one_of(Modality)}
CONFIG = ((dict,), "a JSON object", Reader(lru_cache(maxsize=64)(PromptConfig), _CONFIG_FIELDS))

_PROMPT_FIELDS = {
    "instance_id": INSTANCE_ID,
    "config": CONFIG,
    "prompt_text": STRING,
    "token_count": COUNT,
    "truncation_applied": ((bool,), "a JSON boolean", None),
    # A count another counter made cannot be checked against a context limit.
    "tokenizer": ((str,), repr(TOKENIZER), {TOKENIZER: TOKENIZER}.__getitem__),
}
# A ``prompts.ndjson`` row: ``promptkit.assemble_prompt`` makes it, and ``run`` and ``cost`` read it.
PromptRecord = namedtuple("PromptRecord", _PROMPT_FIELDS, defaults=[TOKENIZER])
PROMPT_ROW = Reader(PromptRecord, _PROMPT_FIELDS)

_RESPONSE_FIELDS = {
    "instance_id": INSTANCE_ID,
    "config": ((str,), "a configuration selector", parse_selector),
    "backend": STRING,
    "raw_text": STRING,
}
# The fields of a ``responses.ndjson`` row that ``run`` (resuming) and ``score`` read.
RESPONSE_ROW = Reader(namedtuple("ResponseRow", _RESPONSE_FIELDS), _RESPONSE_FIELDS)
