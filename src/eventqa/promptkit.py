"""Prompt assembly for the nine strategy/modality configurations.

A prompt is a sequence of headed sections rendered from a plain-text
skeleton template (``templates/skeleton.txt``) and a per-modality
instruction table (``templates/instructions.json``). Which sections appear
is fixed by the configuration matrix: the passage for text and text+graph
prompts, the verbalized graph for graph and text+graph prompts, worked
examples whenever demonstrations are in play. Both template files can be
edited or swapped out without touching code, under one bordering rule:
each placeholder of the skeleton has whitespace or a block edge on both
sides. A skeleton with a placeholder glued to any other character is
refused when it is compiled. The rule is what lets a prompt's token count
be summed from the counts of its parts.

All rendering is byte-deterministic: straight ASCII double quotes, one
blank line between sections, a single trailing newline, and the answer
header directly under the question as the completion cue.
"""

from __future__ import annotations

import json
import logging
import re
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Callable, Collection, NamedTuple, Sequence

from .corpus import QAInstance
from .graphcore import VerbalizedGraph, verbalize_graph
from .vocab import TOKENIZER, Answer, Modality, PromptConfig, PromptError

logger = logging.getLogger(__name__)

SECTION_INSTRUCTION = "Instruction"
SECTION_TEXT = "Text"
SECTION_GRAPH = "Graph"
SECTION_EXAMPLES = "Examples"
SECTION_QUESTION = "Question"
SECTION_ANSWER = "Answer"


class PromptAssemblyError(PromptError):
    pass


class BudgetError(PromptError):
    pass


class InsufficientPoolError(PromptError):
    pass


def canonical_answer_sentence(answer: Answer) -> str:
    """The closing sentence a reasoning trace must end with."""
    return f"Therefore, the final answer is: {answer.value}"


class Demonstration(namedtuple("Demonstration", "question answer source_modality reasoning_trace", defaults=[None])):
    """A worked example: its question, its ``Answer``, the ``Modality`` it is shown in, and an optional trace."""

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


# --- token counting ------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


# Kept apart from ``count_tokens``, which the benchmark traces: each per-part count would be a traced call.
def _simple_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def count_tokens(text: str) -> int:
    """Count tokens: runs of word characters and each remaining non-space character, one apiece.

    It is a proxy: orderings between prompts are meaningful under it,
    absolute counts are not a model's.
    """
    return _simple_count(text)


# --- templates ----------------------------------------------------------------

_PLACEHOLDER_SECTIONS = {
    "instruction": SECTION_INSTRUCTION,
    "text": SECTION_TEXT,
    "graph": SECTION_GRAPH,
    "examples": SECTION_EXAMPLES,
    "question": SECTION_QUESTION,
}

_PLACEHOLDER_RE = re.compile(r"\{(instruction|text|graph|examples|question)\}")


class _Block(NamedTuple):
    """One skeleton block, compiled once: a format string over its placeholders."""

    format: str
    names: tuple[str, ...]  # placeholder names in order of appearance
    section: str  # the section of the first placeholder
    literal_tokens: int  # tokens of the literal text


def _compile_block(block: str) -> _Block:
    pieces = _PLACEHOLDER_RE.split(block)  # literal, name, literal, ..., name, literal
    literals, names = pieces[::2], tuple(pieces[1::2])
    if not names:
        raise PromptError(f"template block without placeholder: {block!r}")
    escaped = [literal.replace("{", "{{").replace("}", "}}") for literal in literals]
    last = len(names) - 1
    for i, (before, after) in enumerate(zip(literals, literals[1:])):
        opens = before[-1:].isspace() or (i == 0 and not before)
        closes = after[:1].isspace() or (i == last and not after)
        if not (opens and closes):
            raise PromptError(f"template placeholder {{{names[i]}}} touches a non-space character: {block!r}")
    return _Block(
        format=escaped[0] + "".join(f"{{{name}}}{literal}" for name, literal in zip(names, escaped[1:])),
        names=names,
        section=_PLACEHOLDER_SECTIONS[names[0]],
        literal_tokens=sum(map(_simple_count, literals)),
    )


class PromptTemplate:
    """Skeleton plus instruction wordings, loaded from editable files.

    The skeleton is compiled once, and a placeholder without whitespace or
    a block edge on both sides is refused. Because a token never spans
    whitespace, the count of a prompt is then the sum of the counts of its
    parts.
    """

    def __init__(self, skeleton: str, instructions: dict[str, dict[str, str]]):
        self.blocks = tuple(
            _compile_block(block) for block in re.split(r"\n{2,}", skeleton.strip("\n")) if block.strip()
        )
        self.instructions = instructions

    def instruction_for(self, modality: Modality, with_examples: bool) -> str:
        table = self.instructions[modality.value]
        return table["with_examples" if with_examples else "zero"]

    def _count_from_sections(self, section_tokens: dict[str, int | None]) -> int:
        """Tokens of a prompt whose sections have these counts (None: section absent)."""
        total = 0
        for block in self.blocks:
            counts = [section_tokens[name] for name in block.names]
            if None not in counts:
                total += block.literal_tokens + sum(counts)
        return total


@lru_cache(maxsize=None)
def default_template() -> PromptTemplate:
    """The shipped template, loaded once."""
    # Read beside this module, not through ``importlib.resources``, which
    # on 3.12+ imports ``inspect`` and ``tempfile`` (~20 ms) at start-up.
    root = Path(__file__).with_name("templates")
    skeleton = (root / "skeleton.txt").read_text(encoding="utf-8")
    return PromptTemplate(skeleton, json.loads((root / "instructions.json").read_text(encoding="utf-8")))


# --- assembly -----------------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> tuple[str, ...]:
    """Split on sentence-final punctuation followed by whitespace."""
    return tuple(part for part in _SENTENCE_SPLIT_RE.split(text.strip()) if part)


class PromptParts(NamedTuple):
    """The structured ingredients a prompt is rendered from.

    ``assemble_prompt`` builds them once, cuts them to the budget on counts
    alone, and renders the kept parts; the record holds only the result.
    """

    instruction: str
    question: str
    passage_sentences: tuple[str, ...] | None
    graph_sentences: tuple[str, ...] | None
    demos: tuple[Demonstration, ...]


class PromptRecord(NamedTuple):
    instance_id: str
    config: PromptConfig
    prompt_text: str
    token_count: int
    truncation_applied: bool
    sections: dict[str, tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "config": self.config.to_dict(),
            "prompt_text": self.prompt_text,
            "token_count": self.token_count,
            "truncation_applied": self.truncation_applied,
            "sections": {name: list(span) for name, span in self.sections.items()},
            "tokenizer": TOKENIZER,
        }


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
    return parts._replace(
        passage_sentences=None if n_text is None else parts.passage_sentences[:n_text],
        demos=parts.demos[:n_demos],
        graph_sentences=None if n_graph is None else parts.graph_sentences[:n_graph],
    )


def _composed_counter(parts: PromptParts, template: PromptTemplate) -> Callable[[_Lengths], int]:
    """Token count of any cut of ``parts``, summed from per-part counts."""
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


def _trim_sequence(lengths: _Lengths):
    """The cuts after ``lengths`` in trim order, each one sentence or demonstration shorter than the last."""
    n_text, n_demos, n_graph = lengths
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


def assemble_prompt(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    verbalized: VerbalizedGraph | None = None,
    *,
    budget: int | None = None,
    template: PromptTemplate | None = None,
) -> PromptRecord:
    """Build the prompt for one instance under one configuration, within ``budget`` tokens if one is given.

    The verbalized graph must be supplied exactly when the modality includes
    the graph; demonstrations must match the configured count and modality.
    Assembly is pure: identical inputs give byte-identical prompt text.

    A prompt over the budget is cut without touching instruction or
    question. Trim priority: passage sentences from the end, then
    demonstrations last first, then graph sentences from the end. The graph
    is only touched once the passage is gone, so structure survives longer
    than prose. Each cut is counted from per-part counts, so the walk is
    linear, and the prompt is rendered once, after the cut.
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
    count = _composed_counter(parts, template)
    lengths = _lengths(parts)
    token_count = count(lengths)
    truncated = budget is not None and token_count > budget
    if truncated:
        if count((None, 0, None)) > budget:
            raise BudgetError(f"budget {budget} is below the prompt skeleton size")
        for lengths in _trim_sequence(lengths):
            token_count = count(lengths)
            if token_count <= budget:
                break
        else:
            # Reached when a passage or graph with no sentences keeps its header.
            raise BudgetError(f"budget {budget} cannot be met")
        parts = _cut(parts, lengths)
    prompt_text, sections = _render(parts, template)
    return PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=prompt_text,
        token_count=token_count,
        truncation_applied=truncated,
        sections=sections,
    )


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
    use and kept, keyed by (position, modality, with trace). Its reasoning
    trace is kept by (position, drawn from the graph), since the graph and
    tag modalities draw the same evidence, so a pool graph is verbalized at
    most once however many prompts draw it.
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
        pool._traces = {}
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
                reasoning_trace=self._trace(position, modality) if with_trace else None,
            )
        return demo

    def _trace(self, position: int, modality: Modality) -> str:
        key = (position, modality is not Modality.TEXT)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = _trace_for(self[position], modality)
        return trace


def select_demonstrations(
    pool: DemoPool,
    config: PromptConfig,
    seed: int,
    exclude_ids: Collection[str] = (),
) -> list[Demonstration]:
    """Pick in-context demonstrations for a configuration, seeded.

    The instance under evaluation is excluded via ``exclude_ids``. When the
    pool carries both labels, the selection always includes at least one yes
    and one no; a single-label pool is used as-is with a warning.
    """
    if config.demo_count == 0:
        return []
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
