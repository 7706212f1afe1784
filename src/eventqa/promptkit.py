"""Prompt assembly for the nine strategy/modality configurations.

A prompt is a fixed sequence of headed sections, spelled once in
``vocab.SECTION_HEADERS``: instruction, passage, graph, examples,
question, with the answer header directly under the question as the
completion cue. Which sections appear is fixed by the configuration
matrix: the passage for text and text+graph prompts, the verbalized graph
for graph and text+graph prompts, worked examples whenever demonstrations
are in play. The instruction wording is the one editable file,
``templates/instructions.json``. Headers meet parts only at whitespace, so
a prompt's ``vocab.count_tokens`` is the counts of its parts plus one
header count per present section.

All rendering is byte-deterministic: straight ASCII double quotes, one
blank line between sections, a single trailing newline. A record holds
the text alone, which fixes every section: a dataset passage or question
holding a header is rejected at load and a label holds no newline, so
each ``### Name ###`` line of a prompt is a header. The record is
``vocab.PromptRecord``, made from the row table of ``prompts.ndjson``.
"""

from __future__ import annotations

import json
import logging
import re
from collections import namedtuple
from functools import cached_property, lru_cache
from pathlib import Path
from random import Random
from typing import Sequence

from .corpus import QAInstance
from .graphcore import verbalize_graph
from .vocab import (
    SECTION_ANSWER,
    SECTION_EXAMPLES,
    SECTION_GRAPH,
    SECTION_HEADERS,
    SECTION_INSTRUCTION,
    SECTION_QUESTION,
    SECTION_TEXT,
    Answer,
    Modality,
    PromptConfig,
    PromptError,
    PromptRecord,
    Strategy,
    count_tokens,
)

logger = logging.getLogger(__name__)


class BudgetError(PromptError):
    pass


class InsufficientPoolError(PromptError):
    pass


def canonical_answer_sentence(answer: Answer) -> str:
    """The closing sentence a reasoning trace must end with."""
    return f"Therefore, the final answer is: {answer.value}"


class Demonstration(namedtuple("Demonstration", "question answer reasoning_trace", defaults=[None])):
    """A worked example: its question, its ``Answer`` and an optional reasoning trace."""

    # Kept on the object, so a demonstration that a DemoPool hands to many
    # prompts is rendered and counted once.
    @cached_property
    def _text(self) -> str:
        """The demonstration as it appears in the Examples section.

        A trace stands in for the bare label; it already ends with the
        canonical answer sentence, which is what extraction keys on.
        """
        return f"Question: {self.question}\nAnswer: {self.reasoning_trace or self.answer.value}"

    @cached_property
    def _simple_tokens(self) -> int:
        return count_tokens(self._text)


@lru_cache(maxsize=None)
def default_template() -> dict[str, dict[str, str]]:
    """The instruction wordings by modality, ``zero`` and ``with_examples``, loaded once; the layout is fixed."""
    # Read beside this module, not through ``importlib.resources``, which
    # on 3.12+ imports ``inspect`` and ``tempfile`` (~20 ms) at start-up.
    return json.loads(Path(__file__).with_name("templates").joinpath("instructions.json").read_text(encoding="utf-8"))


# --- assembly -----------------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> tuple[str, ...]:
    """Split on sentence-final punctuation followed by whitespace."""
    return tuple(part for part in _SENTENCE_SPLIT_RE.split(text.strip()) if part)


def _render(sections: dict[str, tuple[str, ...] | None]) -> str:
    chunks = [
        f"{SECTION_HEADERS[name]}\n" + (" " if name == SECTION_TEXT else "\n").join(parts)
        for name, parts in sections.items()
        if parts is not None
    ]
    # The answer header follows the question after a single newline.
    return "\n\n".join(chunks) + f"\n{SECTION_HEADERS[SECTION_ANSWER]}\n"


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
    return tuple(map(count_tokens, part))


_HEADER_TOKENS = {name: count_tokens(header) for name, header in SECTION_HEADERS.items()}

# The sections an over-budget prompt is cut from, in the order they are cut.
_CUT_ORDER = (SECTION_TEXT, SECTION_EXAMPLES, SECTION_GRAPH)


def assemble_prompt(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    graph: tuple[str, ...] | None = None,
    *,
    budget: int | None = None,
) -> PromptRecord:
    """Build the prompt for one instance under one configuration, within ``budget`` tokens if one is given.

    ``graph`` holds the instance's verbalized graph sentences; it is read
    only when the modality includes the graph. ``demos`` are shown as
    given: ``select_demonstrations`` draws the configured count.
    Assembly is pure: identical inputs give byte-identical prompt text.

    The prompt is held as a dict from section name to its parts, in
    ``SECTION_HEADERS`` order, None for a section the configuration leaves
    out: passage sentences, graph sentences, demonstrations, and the
    instruction and question as one part each. Its token count is the
    counts of its parts plus one header count per present section.

    A prompt over the budget is cut without touching instruction or
    question, in one walk over the passage, then the examples, then the
    graph. Each section drops parts from its end until the prompt fits, and
    dropping its last part drops its header too, so the graph is only
    touched once the passage and the examples are gone: structure survives
    longer than prose. The walk subtracts per-part counts, so it is linear,
    and the prompt is rendered once, after the cut.
    """
    instruction = default_template()[config.modality.value]["with_examples" if config.demo_count else "zero"]
    sections = {
        SECTION_INSTRUCTION: (instruction,),
        SECTION_TEXT: _passage_sentences(instance.passage) if config.includes_text else None,
        SECTION_GRAPH: graph if config.includes_graph else None,
        SECTION_EXAMPLES: tuple(demo._text for demo in demos) or None,
        SECTION_QUESTION: (instance.question,),
    }
    # Each prompt draws its own demonstrations, so they are counted on the
    # object: in the LRU they would miss and evict the passage counts.
    counts = {
        name: tuple(demo._simple_tokens for demo in demos) if name == SECTION_EXAMPLES else _part_counts(parts)
        for name, parts in sections.items()
        if parts is not None
    }
    sizes = {name: _HEADER_TOKENS[name] + sum(part_counts) for name, part_counts in counts.items()}
    token_count = _HEADER_TOKENS[SECTION_ANSWER] + sum(sizes.values())
    truncated = budget is not None and token_count > budget
    if truncated:
        if token_count - sum(sizes.get(name, 0) for name in _CUT_ORDER) > budget:
            raise BudgetError(f"budget {budget} is below the prompt skeleton size")
        for name in _CUT_ORDER:
            parts = sections[name]
            kept = len(parts or ())
            while token_count > budget and kept:
                kept -= 1
                token_count -= counts[name][kept] + (0 if kept else _HEADER_TOKENS[name])
            if parts:
                sections[name] = parts[:kept] or None
        if token_count > budget:
            # Reached when a passage or graph with no sentences keeps its header.
            raise BudgetError(f"budget {budget} cannot be met")
    return PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=_render(sections),
        token_count=token_count,
        truncation_applied=truncated,
    )


def _trace_for(instance: QAInstance, from_graph: bool) -> str:
    """Render a short worked rationale for a chain-of-thought demonstration, from its graph or its passage."""
    evidence = verbalize_graph(instance.graph)[:2] if from_graph else split_sentences(instance.passage)[:2]
    steps = [f"{i}. {sentence}" for i, sentence in enumerate(evidence, start=1)]
    return " ".join(["Let's think step by step.", *steps, canonical_answer_sentence(instance.gold_answer)])


class DemoPool(tuple):
    """A demonstration pool prepared once and reused across prompts.

    Holds the pool's instances in order, their ids, and the positions of
    the yes and the no instances. A demonstration's text depends only on
    its position, on whether it has a trace and, if so, on whether the
    trace's evidence is the graph (graph and tag modalities, for an
    instance with one). Each demonstration is built on first use and kept
    under exactly that key, so modalities share it where its text is the
    same, and a pool graph is verbalized at most once.
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
        pool._warned = False  # that a draw found a single label
        return pool

    def demonstration(self, position: int, modality: Modality, with_trace: bool) -> Demonstration:
        instance = self[position]
        from_graph = with_trace and modality is not Modality.TEXT and instance.graph is not None
        key = (position, with_trace, from_graph)
        demo = self._demos.get(key)
        if demo is None:
            demo = self._demos[key] = Demonstration(
                question=instance.question,
                answer=instance.gold_answer,
                reasoning_trace=_trace_for(instance, from_graph) if with_trace else None,
            )
        return demo


def select_demonstrations(pool: DemoPool, config: PromptConfig, seed: int) -> list[Demonstration]:
    """Pick in-context demonstrations for a configuration, seeded.

    Every instance of ``pool`` is eligible: ``build`` refuses a pool that
    shares an id with the dataset before it draws. When the pool carries
    both labels, the selection always includes at least one yes and one
    no; a single-label pool is used as-is, with a warning on the first such
    draw from ``pool``.
    """
    if config.demo_count == 0:
        return []
    if len(pool) < config.demo_count:
        raise InsufficientPoolError(f"need {config.demo_count} demonstrations, pool has {len(pool)} eligible instances")

    rng = Random(seed)
    yes_positions, no_positions = pool.yes_positions, pool.no_positions

    if yes_positions and no_positions:
        first = sorted({rng.choice(yes_positions), rng.choice(no_positions)})
        # Draw among the positions not yet picked without listing them: the
        # index-th of them is index stepped past each picked position at or
        # below it, in ascending order. ``sample`` makes the same draws for a
        # range as for a list of the same length.
        picked = set(first)
        for index in rng.sample(range(len(pool) - len(first)), config.demo_count - 2):
            for position in first:
                index += index >= position
            picked.add(index)
    else:
        if not pool._warned:
            pool._warned = True  # once per pool, not once per prompt
            logger.warning(
                "demonstration pool is label-imbalanced: %d yes / %d no",
                len(yes_positions),
                len(no_positions),
            )
        picked = set(rng.sample(range(len(pool)), config.demo_count))

    return [
        pool.demonstration(position, config.modality, config.strategy is Strategy.COT)
        for position in sorted(picked)  # stable pool order
    ]
