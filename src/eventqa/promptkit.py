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
from functools import cached_property, lru_cache
from importlib import resources
from itertools import accumulate
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

    @cached_property
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
        return _config(raw["strategy"], raw["modality"], int(raw["demo_count"]), bool(raw["include_reasoning_traces"]))


# Every record of a manifest names one of a few configurations; each is
# built once and shared, which is safe because a config is frozen.
@lru_cache(maxsize=64)
def _config(strategy: str, modality: str, demo_count: int, include_reasoning_traces: bool) -> PromptConfig:
    return PromptConfig(Strategy(strategy), Modality(modality), demo_count, include_reasoning_traces)


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

    # Kept on the object, so a demonstration that a DemoPool hands to many
    # prompts is rendered and counted once.
    @cached_property
    def _text(self) -> str:
        """The demonstration as it appears in the Examples section."""
        return f"Question: {self.question}\nAnswer: {self.rendered_answer()}"

    @cached_property
    def _simple_tokens(self) -> int:
        return _simple_count(self._text)


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


@dataclass(frozen=True)
class _Block:
    """One skeleton block, compiled once: a format string over its placeholders."""

    format: str
    names: tuple[str, ...]  # placeholder names in order of appearance
    section: str  # the section of the first placeholder
    literal_tokens: int  # tokens of the literal text under ``simple``
    bordered: bool  # every placeholder touches whitespace or a block edge on both sides


def _compile_block(block: str) -> _Block:
    pieces = _PLACEHOLDER_RE.split(block)  # literal, name, literal, ..., name, literal
    literals, names = pieces[::2], tuple(pieces[1::2])
    if not names:
        raise PromptError(f"template block without placeholder: {block!r}")
    escaped = [literal.replace("{", "{{").replace("}", "}}") for literal in literals]
    last = len(names) - 1
    bordered = all(
        (before[-1:].isspace() or (i == 0 and not before)) and (after[:1].isspace() or (i == last and not after))
        for i, (before, after) in enumerate(zip(literals, literals[1:]))
    )
    return _Block(
        format=escaped[0] + "".join(f"{{{name}}}{literal}" for name, literal in zip(names, escaped[1:])),
        names=names,
        section=_PLACEHOLDER_SECTIONS[names[0]],
        literal_tokens=sum(map(_simple_count, literals)),
        bordered=bordered,
    )


class PromptTemplate:
    """Skeleton plus instruction wordings, loaded from editable files.

    The skeleton is compiled once. Because a ``simple`` token never spans
    whitespace, the count of a prompt is the sum of the counts of its parts
    whenever every placeholder is bordered by whitespace or a block edge;
    ``additive`` records whether that holds for this skeleton.
    """

    def __init__(self, skeleton: str, instructions: dict[str, dict[str, str]]):
        self.blocks = tuple(
            _compile_block(block) for block in re.split(r"\n{2,}", skeleton.strip("\n")) if block.strip()
        )
        self.instructions = instructions
        self.additive = all(block.bordered for block in self.blocks)

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

    def _count_from_sections(self, section_tokens: dict[str, int | None]) -> int:
        """``simple`` tokens of a prompt whose sections have these counts (None: section absent).

        Valid only for an ``additive`` template.
        """
        total = 0
        for block in self.blocks:
            counts = [section_tokens[name] for name in block.names]
            if None not in counts:
                total += block.literal_tokens + sum(counts)
        return total


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


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _render(parts: PromptParts, template: PromptTemplate) -> tuple[str, dict[str, tuple[int, int]]]:
    values = {
        "instruction": parts.instruction,
        "text": " ".join(parts.passage_sentences) if parts.passage_sentences is not None else None,
        "graph": "\n".join(parts.graph_sentences) if parts.graph_sentences is not None else None,
        "examples": "\n".join(demo._text for demo in parts.demos) if parts.demos else None,
        "question": parts.question,
    }

    rendered_blocks: list[str] = []
    sections: dict[str, tuple[int, int]] = {}
    offset = 0  # in UTF-8 bytes
    for block in template.blocks:
        if any(values[name] is None for name in block.names):
            continue
        text = block.format.format_map(values)
        if rendered_blocks:
            offset += 2  # the separating blank line
        size = _utf8_len(text)
        if "question" in block.names:
            # The question block also carries the trailing answer header.
            answer_header_at = _utf8_len(text[: text.rindex("\n### Answer ###")])
            sections[SECTION_QUESTION] = (offset, offset + answer_header_at)
            sections[SECTION_ANSWER] = (offset + answer_header_at + 1, offset + size)
        else:
            sections[block.section] = (offset, offset + size)
        rendered_blocks.append(text)
        offset += size

    return "\n\n".join(rendered_blocks) + "\n", sections


# How many passages keep their sentences, and how many passages, graphs,
# questions and instructions keep their counts. A build visits all
# configurations of one instance in a row, so a few entries per instance
# are enough.
PART_COUNT_CACHE_SIZE = 64


@lru_cache(maxsize=PART_COUNT_CACHE_SIZE)
def _passage_sentences(passage: str) -> tuple[str, ...]:
    return split_sentences(passage)


@lru_cache(maxsize=PART_COUNT_CACHE_SIZE)
def _part_counts(part: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(map(_simple_count, part))


def _prefix_sums(sentences: tuple[str, ...] | None) -> list[int] | None:
    return None if sentences is None else list(accumulate(_part_counts(sentences), initial=0))


# A cut of a prompt's parts: how many passage sentences, demonstrations and
# graph sentences it keeps, None for a section it drops entirely.
_Lengths = tuple[int | None, int, int | None]


def _lengths(parts: PromptParts) -> _Lengths:
    passage, graph = parts.passage_sentences, parts.graph_sentences
    return (None if passage is None else len(passage), len(parts.demos), None if graph is None else len(graph))


def _cut(parts: PromptParts, lengths: _Lengths) -> PromptParts:
    n_text, n_demos, n_graph = lengths
    return replace(
        parts,
        passage_sentences=None if n_text is None else parts.passage_sentences[:n_text],
        demos=parts.demos[:n_demos],
        graph_sentences=None if n_graph is None else parts.graph_sentences[:n_graph],
    )


def _composed_counter(
    parts: PromptParts, template: PromptTemplate, tokenizer: str
) -> Callable[[_Lengths], int] | None:
    """Token count of any cut of ``parts``, summed from per-part counts.

    None unless the tokenizer is ``simple`` and the template is additive;
    the caller then counts the rendered text in full.
    """
    if not template.additive or _TOKENIZERS.get(tokenizer) is not _simple_count:
        return None
    fixed = {"instruction": _part_counts((parts.instruction,))[0], "question": _part_counts((parts.question,))[0]}
    text, graph = _prefix_sums(parts.passage_sentences), _prefix_sums(parts.graph_sentences)
    demos = list(accumulate((demo._simple_tokens for demo in parts.demos), initial=0))

    def count(lengths: _Lengths) -> int:
        n_text, n_demos, n_graph = lengths
        return template._count_from_sections(
            {
                **fixed,
                "text": None if n_text is None else text[n_text],
                "examples": demos[n_demos] if n_demos else None,
                "graph": None if n_graph is None else graph[n_graph],
            }
        )

    return count


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
        passage_sentences=_passage_sentences(instance.passage) if config.includes_text else None,
        graph_sentences=tuple(verbalized.sentences) if config.includes_graph else None,
        demos=tuple(demos),
    )
    prompt_text, sections = _render(parts, template)
    composed = _composed_counter(parts, template, tokenizer)
    return PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=prompt_text,
        token_count=composed(_lengths(parts)) if composed else count_tokens(prompt_text, tokenizer),
        truncation_applied=False,
        sections=sections,
        tokenizer=tokenizer,
        parts=parts,
    )


def _trim_sequence(parts: PromptParts):
    """The cuts of ``parts`` in trim order, each one sentence or demonstration shorter than the last."""
    n_text, n_demos, n_graph = _lengths(parts)
    while True:
        if n_text:
            n_text = n_text - 1 or None
        elif n_demos:
            n_demos -= 1
        elif n_graph:
            n_graph = n_graph - 1 or None
        else:
            return
        yield n_text, n_demos, n_graph


def truncate_to_budget(
    record: PromptRecord,
    budget: int,
    *,
    template: PromptTemplate | None = None,
) -> PromptRecord:
    """Shrink a prompt to the token budget without touching instruction or question.

    Trim priority: passage sentences from the end, then demonstrations last
    first, then graph sentences from the end. The graph is only touched once
    the passage is gone, so structure survives longer than prose. Under an
    additive template and tokenizer each cut is counted from per-part
    counts, so the walk is linear; otherwise each cut is rendered and
    counted in full. Either way the result is rendered once.
    """
    if record.token_count <= budget:
        return record
    if record.parts is None:
        raise PromptError("cannot truncate a record without its structured parts (truncate before serializing)")
    template = template or default_template()

    parts = record.parts
    count = _composed_counter(parts, template, record.tokenizer) or (
        lambda lengths: count_tokens(_render(_cut(parts, lengths), template)[0], record.tokenizer)
    )
    if count((None, 0, None)) > budget:
        raise BudgetError(f"budget {budget} is below the prompt skeleton size")

    for lengths in _trim_sequence(parts):
        token_count = count(lengths)
        if token_count <= budget:
            kept = _cut(parts, lengths)
            prompt_text, sections = _render(kept, template)
            return replace(
                record,
                prompt_text=prompt_text,
                token_count=token_count,
                truncation_applied=True,
                sections=sections,
                parts=kept,
            )
    # Reached when a passage or graph with no sentences keeps its header.
    raise BudgetError(f"budget {budget} cannot be met")


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
        first = sorted({rng.choice(yes_positions), rng.choice(no_positions)})
        # Draw among the positions not yet picked without listing them: the
        # index-th of them is index stepped past each picked position at or
        # below it, in ascending order. ``sample`` makes the same draws for a
        # range as for a list of the same length.
        picked = set(first)
        for index in rng.sample(range(len(eligible) - len(first)), config.demo_count - 2):
            for position in first:
                index += index >= position
            picked.add(index)
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
