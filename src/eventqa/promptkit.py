"""Prompt assembly for the nine strategy/modality configurations.

A prompt is a sequence of headed sections rendered from a plain-text
skeleton template (``templates/skeleton.txt``) and a per-modality
instruction table (``templates/instructions.json``). Which sections appear
is fixed by the configuration matrix: the passage for text and text+graph
prompts, the verbalized graph for graph and text+graph prompts, worked
examples whenever demonstrations are in play. Both template files can be
edited or swapped out without touching code.

All rendering is byte-deterministic: straight ASCII double quotes, one
blank line between sections, a single trailing newline, and the answer
header directly under the question as the completion cue.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from random import Random
from typing import Callable, Collection, Sequence

from .corpus import Answer, QAInstance
from .graphcore import VerbalizedGraph, verbalize_graph

logger = logging.getLogger(__name__)

SECTION_INSTRUCTION = "Instruction"
SECTION_TEXT = "Text"
SECTION_GRAPH = "Graph"
SECTION_EXAMPLES = "Examples"
SECTION_QUESTION = "Question"
SECTION_ANSWER = "Answer"

DEFAULT_DEMO_COUNT = 3


class PromptError(Exception):
    """Base class for prompt-stage failures."""


class PromptAssemblyError(PromptError):
    pass


class UnknownTokenizerError(PromptError):
    pass


class BudgetError(PromptError):
    pass


class InsufficientPoolError(PromptError):
    pass


class Strategy(str, Enum):
    ZERO = "zero"
    FEW = "few"
    COT = "cot"


class Modality(str, Enum):
    TEXT = "text"
    GRAPH = "graph"
    TAG = "tag"


def canonical_answer_sentence(answer: Answer) -> str:
    """The closing sentence a reasoning trace must end with."""
    return f"Therefore, the final answer is: {answer.value}"


@dataclass(frozen=True)
class PromptConfig:
    """One cell of the strategy x modality matrix."""

    strategy: Strategy
    modality: Modality
    demo_count: int = -1  # -1 means "default for the strategy"
    include_reasoning_traces: bool | None = None

    def __post_init__(self) -> None:
        if self.demo_count == -1:
            object.__setattr__(self, "demo_count", 0 if self.strategy is Strategy.ZERO else DEFAULT_DEMO_COUNT)
        if self.include_reasoning_traces is None:
            object.__setattr__(self, "include_reasoning_traces", self.strategy is Strategy.COT)
        if (self.demo_count == 0) != (self.strategy is Strategy.ZERO):
            raise ValueError("demo_count must be 0 exactly for the zero-shot strategy")
        if self.include_reasoning_traces != (self.strategy is Strategy.COT):
            raise ValueError("reasoning traces are used exactly in the chain-of-thought strategy")
        if self.demo_count < 0:
            raise ValueError("demo_count must be non-negative")

    @property
    def selector(self) -> str:
        return f"{self.strategy.value}-{self.modality.value}"

    @property
    def includes_text(self) -> bool:
        return self.modality in (Modality.TEXT, Modality.TAG)

    @property
    def includes_graph(self) -> bool:
        return self.modality in (Modality.GRAPH, Modality.TAG)

    @property
    def includes_examples(self) -> bool:
        return self.strategy in (Strategy.FEW, Strategy.COT)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "modality": self.modality.value,
            "demo_count": self.demo_count,
            "include_reasoning_traces": self.include_reasoning_traces,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PromptConfig":
        return cls(
            strategy=Strategy(raw["strategy"]),
            modality=Modality(raw["modality"]),
            demo_count=int(raw["demo_count"]),
            include_reasoning_traces=bool(raw["include_reasoning_traces"]),
        )


_MODALITY_ALIASES = {"text": Modality.TEXT, "graph": Modality.GRAPH, "graphs": Modality.GRAPH, "tag": Modality.TAG}


def parse_selector(selector: str) -> PromptConfig:
    """Parse a ``strategy-modality`` name like ``cot-tag`` into a config."""
    try:
        strategy_raw, modality_raw = selector.strip().lower().split("-", 1)
        return PromptConfig(strategy=Strategy(strategy_raw), modality=_MODALITY_ALIASES[modality_raw])
    except (ValueError, KeyError):
        raise PromptError(f"unknown configuration selector {selector!r}") from None


def all_configs() -> tuple[PromptConfig, ...]:
    """All nine configurations, strategies outer, modalities inner."""
    return tuple(PromptConfig(strategy=s, modality=m) for s in Strategy for m in Modality)


@dataclass(frozen=True)
class Demonstration:
    question: str
    answer: Answer
    source_modality: Modality
    reasoning_trace: str | None = None

    def rendered_answer(self) -> str:
        # A trace stands in for the bare label; it already ends with the
        # canonical answer sentence, which is what extraction keys on.
        return self.reasoning_trace if self.reasoning_trace else self.answer.value


# --- tokenizers --------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def _simple_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


_TOKENIZERS: dict[str, Callable[[str], int]] = {"simple": _simple_count}

DEFAULT_TOKENIZER = "simple"


def register_tokenizer(name: str, counter: Callable[[str], int]) -> None:
    _TOKENIZERS[name] = counter


def count_tokens(text: str, tokenizer: str = DEFAULT_TOKENIZER) -> int:
    """Count tokens under a registered tokenizer proxy.

    The default splitter counts runs of word characters and each remaining
    non-space character as one token apiece. It is a proxy: orderings are
    meaningful under it, absolute counts are tokenizer-specific.
    """
    try:
        counter = _TOKENIZERS[tokenizer]
    except KeyError:
        raise UnknownTokenizerError(f"unknown tokenizer {tokenizer!r}") from None
    return counter(text)


# --- templates ----------------------------------------------------------------

_PLACEHOLDER_SECTIONS = {
    "instruction": SECTION_INSTRUCTION,
    "text": SECTION_TEXT,
    "graph": SECTION_GRAPH,
    "examples": SECTION_EXAMPLES,
    "question": SECTION_QUESTION,
}

_PLACEHOLDER_RE = re.compile(r"\{(instruction|text|graph|examples|question)\}")


class PromptTemplate:
    """Skeleton plus instruction wordings, loaded from editable files."""

    def __init__(self, skeleton: str, instructions: dict[str, dict[str, str]]):
        self.blocks = [block for block in re.split(r"\n{2,}", skeleton.strip("\n")) if block.strip()]
        self.instructions = instructions
        for block in self.blocks:
            if not _PLACEHOLDER_RE.search(block):
                raise PromptError(f"template block without placeholder: {block!r}")

    @classmethod
    def default(cls) -> "PromptTemplate":
        root = resources.files("eventqa") / "templates"
        return cls.load(root / "skeleton.txt", root / "instructions.json")

    @classmethod
    def load(cls, skeleton_path, instructions_path) -> "PromptTemplate":
        def read(source) -> str:
            if hasattr(source, "read_text"):
                return source.read_text(encoding="utf-8")
            return Path(source).read_text(encoding="utf-8")

        return cls(read(skeleton_path), json.loads(read(instructions_path)))

    def instruction_for(self, modality: Modality, with_examples: bool) -> str:
        table = self.instructions[modality.value]
        return table["with_examples" if with_examples else "zero"]


_DEFAULT_TEMPLATE: PromptTemplate | None = None


def default_template() -> PromptTemplate:
    global _DEFAULT_TEMPLATE
    if _DEFAULT_TEMPLATE is None:
        _DEFAULT_TEMPLATE = PromptTemplate.default()
    return _DEFAULT_TEMPLATE


# --- assembly -----------------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> tuple[str, ...]:
    """Split on sentence-final punctuation followed by whitespace."""
    return tuple(part for part in _SENTENCE_SPLIT_RE.split(text.strip()) if part)


@dataclass(frozen=True)
class PromptParts:
    """The structured ingredients a prompt is rendered from.

    Kept on the record so truncation can re-render from structure instead
    of hacking at the text. Not serialized.
    """

    instruction: str
    question: str
    passage_sentences: tuple[str, ...] | None
    graph_sentences: tuple[str, ...] | None
    demos: tuple[Demonstration, ...]


@dataclass(frozen=True)
class PromptRecord:
    instance_id: str
    config: PromptConfig
    prompt_text: str
    token_count: int
    truncation_applied: bool
    sections: dict[str, tuple[int, int]]
    tokenizer: str = DEFAULT_TOKENIZER
    parts: PromptParts | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "config": self.config.to_dict(),
            "prompt_text": self.prompt_text,
            "token_count": self.token_count,
            "truncation_applied": self.truncation_applied,
            "sections": {name: list(span) for name, span in self.sections.items()},
            "tokenizer": self.tokenizer,
        }

    def count_under(self, tokenizer: str) -> int:
        """Prompt tokens under ``tokenizer``: the stored count when it is the record's own, else a fresh count."""
        return self.token_count if tokenizer == self.tokenizer else count_tokens(self.prompt_text, tokenizer)

    @classmethod
    def from_dict(cls, raw: dict) -> "PromptRecord":
        return cls(
            instance_id=raw["instance_id"],
            config=PromptConfig.from_dict(raw["config"]),
            prompt_text=raw["prompt_text"],
            token_count=int(raw["token_count"]),
            truncation_applied=bool(raw["truncation_applied"]),
            sections={name: (int(span[0]), int(span[1])) for name, span in raw["sections"].items()},
            tokenizer=raw.get("tokenizer", DEFAULT_TOKENIZER),
        )


def _render_demo(demo: Demonstration) -> str:
    return f"Question: {demo.question}\nAnswer: {demo.rendered_answer()}"


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _render(parts: PromptParts, template: PromptTemplate) -> tuple[str, dict[str, tuple[int, int]]]:
    values = {
        "instruction": parts.instruction,
        "text": " ".join(parts.passage_sentences) if parts.passage_sentences is not None else None,
        "graph": "\n".join(parts.graph_sentences) if parts.graph_sentences is not None else None,
        "examples": "\n".join(_render_demo(d) for d in parts.demos) if parts.demos else None,
        "question": parts.question,
    }

    rendered_blocks: list[str] = []
    # (section name, char start, char end) relative to the block, resolved later.
    section_spans: list[tuple[str, int, int]] = []
    offset = 0
    for block in template.blocks:
        placeholders = _PLACEHOLDER_RE.findall(block)
        if any(values[name] is None for name in placeholders):
            continue
        text = _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], block)
        if rendered_blocks:
            offset += 2  # the separating blank line
        if "question" in placeholders:
            # The question block also carries the trailing answer header.
            answer_header_at = text.rindex("\n### Answer ###")
            section_spans.append((SECTION_QUESTION, offset, offset + answer_header_at))
            section_spans.append((SECTION_ANSWER, offset + answer_header_at + 1, offset + len(text)))
        else:
            section_spans.append((_PLACEHOLDER_SECTIONS[placeholders[0]], offset, offset + len(text)))
        rendered_blocks.append(text)
        offset += len(text)

    prompt_text = "\n\n".join(rendered_blocks) + "\n"
    sections = {
        name: (_byte_offset(prompt_text, start), _byte_offset(prompt_text, end))
        for name, start, end in section_spans
    }
    return prompt_text, sections


def assemble_prompt(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    verbalized: VerbalizedGraph | None = None,
    *,
    tokenizer: str = DEFAULT_TOKENIZER,
    template: PromptTemplate | None = None,
) -> PromptRecord:
    """Build the full prompt for one instance under one configuration.

    The verbalized graph must be supplied exactly when the modality includes
    the graph; demonstrations must match the configured count and modality.
    Assembly is pure: identical inputs give byte-identical prompt text.
    """
    template = template or default_template()
    if config.includes_graph and verbalized is None:
        raise PromptAssemblyError(f"{config.selector} requires a verbalized graph")
    if not config.includes_graph and verbalized is not None:
        raise PromptAssemblyError(f"{config.selector} does not take a graph")
    if len(demos) != config.demo_count:
        raise PromptAssemblyError(f"{config.selector} expects {config.demo_count} demonstrations, got {len(demos)}")
    for demo in demos:
        if demo.source_modality is not config.modality:
            raise PromptAssemblyError(
                f"demonstration modality {demo.source_modality.value} does not match {config.selector}"
            )

    parts = PromptParts(
        instruction=template.instruction_for(config.modality, config.includes_examples),
        question=instance.question,
        passage_sentences=split_sentences(instance.passage) if config.includes_text else None,
        graph_sentences=tuple(verbalized.sentences) if config.includes_graph else None,
        demos=tuple(demos),
    )
    prompt_text, sections = _render(parts, template)
    return PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=prompt_text,
        token_count=count_tokens(prompt_text, tokenizer),
        truncation_applied=False,
        sections=sections,
        tokenizer=tokenizer,
        parts=parts,
    )


def truncate_to_budget(
    record: PromptRecord,
    budget: int,
    *,
    template: PromptTemplate | None = None,
) -> PromptRecord:
    """Shrink a prompt to the token budget without touching instruction or question.

    Trim priority: passage sentences from the end, then demonstrations last
    first, then graph sentences from the end. The graph is only touched once
    the passage is gone, so structure survives longer than prose.
    """
    if record.token_count <= budget:
        return record
    if record.parts is None:
        raise PromptError("cannot truncate a record without its structured parts (truncate before serializing)")
    template = template or default_template()

    skeleton = replace(record.parts, passage_sentences=None, graph_sentences=None, demos=())
    skeleton_text, _ = _render(skeleton, template)
    if count_tokens(skeleton_text, record.tokenizer) > budget:
        raise BudgetError(f"budget {budget} is below the prompt skeleton size")

    parts = record.parts
    while True:
        if parts.passage_sentences:
            parts = replace(parts, passage_sentences=parts.passage_sentences[:-1] or None)
        elif parts.demos:
            parts = replace(parts, demos=parts.demos[:-1])
        elif parts.graph_sentences:
            parts = replace(parts, graph_sentences=parts.graph_sentences[:-1] or None)
        else:
            break
        prompt_text, sections = _render(parts, template)
        token_count = count_tokens(prompt_text, record.tokenizer)
        if token_count <= budget:
            return replace(
                record,
                prompt_text=prompt_text,
                token_count=token_count,
                truncation_applied=True,
                sections=sections,
                parts=parts,
            )
    raise BudgetError(f"budget {budget} cannot be met")  # unreachable: skeleton fits


def _trace_for(instance: QAInstance, modality: Modality) -> str:
    """Render a short worked rationale for a chain-of-thought demonstration."""
    if modality in (Modality.GRAPH, Modality.TAG) and instance.graph is not None:
        evidence = verbalize_graph(instance.graph).sentences[:2]
    else:
        evidence = split_sentences(instance.passage)[:2]
    steps = " ".join(f"{i}. {sentence}" for i, sentence in enumerate(evidence, start=1))
    prefix = f"Let's think step by step. {steps} " if steps else "Let's think step by step. "
    return prefix + canonical_answer_sentence(instance.gold_answer)


class DemoPool(tuple):
    """A demonstration pool prepared once and reused across prompts.

    Holds the pool's instances in order, their ids, and the positions of
    the yes and the no instances. Each demonstration is rendered on first
    use and kept, keyed by (position, modality, with trace), so a pool
    graph is verbalized at most once per modality however many prompts
    draw it.
    """

    ids: frozenset[str]
    yes_positions: tuple[int, ...]
    no_positions: tuple[int, ...]

    def __new__(cls, instances: Sequence[QAInstance] = ()) -> "DemoPool":
        pool = super().__new__(cls, instances)
        pool.ids = frozenset(instance.instance_id for instance in pool)
        pool.yes_positions = tuple(i for i, instance in enumerate(pool) if instance.gold_answer is Answer.YES)
        pool.no_positions = tuple(i for i, instance in enumerate(pool) if instance.gold_answer is Answer.NO)
        pool._demos = {}
        return pool

    def demonstration(self, position: int, modality: Modality, with_trace: bool) -> Demonstration:
        key = (position, modality, with_trace)
        demo = self._demos.get(key)
        if demo is None:
            instance = self[position]
            demo = self._demos[key] = Demonstration(
                question=instance.question,
                answer=instance.gold_answer,
                source_modality=modality,
                reasoning_trace=_trace_for(instance, modality) if with_trace else None,
            )
        return demo


def select_demonstrations(
    pool: Sequence[QAInstance],
    config: PromptConfig,
    seed: int,
    exclude_ids: Collection[str] = (),
) -> list[Demonstration]:
    """Pick in-context demonstrations for a configuration, seeded.

    The instance under evaluation is excluded via ``exclude_ids``. When the
    pool carries both labels, the selection always includes at least one yes
    and one no; a single-label pool is used as-is with a warning. Pass a
    ``DemoPool`` built once to reuse its label split and rendered demos
    across calls; any other sequence is prepared on every call.
    """
    if config.demo_count == 0:
        return []
    if not isinstance(pool, DemoPool):
        pool = DemoPool(pool)
    eligible = pool
    if not pool.ids.isdisjoint(exclude_ids):
        eligible = DemoPool([instance for instance in pool if instance.instance_id not in exclude_ids])
    if len(eligible) < config.demo_count:
        raise InsufficientPoolError(
            f"need {config.demo_count} demonstrations, pool has {len(eligible)} eligible instances"
        )

    rng = Random(seed)
    yes_positions, no_positions = eligible.yes_positions, eligible.no_positions

    if yes_positions and no_positions and config.demo_count >= 2:
        picked = {rng.choice(yes_positions), rng.choice(no_positions)}
        rest = [i for i in range(len(eligible)) if i not in picked]
        picked.update(rng.sample(rest, config.demo_count - 2))
    else:
        if not yes_positions or not no_positions:
            logger.warning(
                "demonstration pool is label-imbalanced: %d yes / %d no",
                len(yes_positions),
                len(no_positions),
            )
        picked = set(rng.sample(range(len(eligible)), config.demo_count))

    return [
        eligible.demonstration(position, config.modality, config.include_reasoning_traces)
        for position in sorted(picked)  # stable pool order
    ]
