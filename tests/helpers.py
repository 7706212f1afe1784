"""Shared builders for test corpora and random graphs."""

from __future__ import annotations

import logging
import re
from fractions import Fraction
from random import Random
from typing import NamedTuple, Sequence

from eventqa.corpus import (
    Answer,
    CausalEdge,
    CausalGraph,
    EventNode,
    QAInstance,
    QuestionCategory,
    Relation,
    SamplingError,
    sample_positions,
)
from eventqa.extract import UNPARSEABLE, ExtractedAnswer, ExtractedLabel, ExtractionMethod
from eventqa.graphcore import verbalize_graph
from eventqa.promptkit import (
    BudgetError,
    Demonstration,
    InsufficientPoolError,
    Modality,
    PromptConfig,
    PromptError,
    PromptRecord,
    canonical_answer_sentence,
    split_sentences,
)
from eventqa.vocab import Strategy, count_tokens

logger = logging.getLogger(__name__)

RALLY_PASSAGE = (
    "Organizers state the two days of music, dancing, and speeches is expected to draw "
    "some two million people. But as supporters gathered in the north, riot police deployed "
    "in Lagos to break up a protest rally called by the political opposition."
)

RALLY_QUESTION = 'Did "gathered" happen while the organizers made a statement?'


def rally_graph() -> CausalGraph:
    nodes = (
        EventNode("riot_police_deployed", "riot police deployed"),
        EventNode("protest_rally", "protest rally"),
        EventNode("political_opposition", "political opposition"),
        EventNode("political_opposition_called_rally", "political opposition called rally"),
        EventNode("music", "music"),
        EventNode("draws_many_people", "draws many people to festival"),
        EventNode("dancing", "dancing"),
        EventNode("speeches", "speeches"),
    )
    edges = (
        CausalEdge("riot_police_deployed", "protest_rally", Relation.BLOCKS),
        CausalEdge("political_opposition", "political_opposition_called_rally", Relation.ENABLES),
        CausalEdge("political_opposition_called_rally", "protest_rally", Relation.ENABLES),
        CausalEdge("music", "draws_many_people", Relation.ENABLES),
        CausalEdge("dancing", "draws_many_people", Relation.ENABLES),
        CausalEdge("speeches", "draws_many_people", Relation.ENABLES),
    )
    return CausalGraph(nodes, edges)


def rally_instance() -> QAInstance:
    return QAInstance(
        instance_id="rally",
        passage=RALLY_PASSAGE,
        question=RALLY_QUESTION,
        gold_answer=Answer.NO,
        graph=rally_graph(),
        category=QuestionCategory.TEMPORAL_CONFLICT,
    )

RALLY_GRAPH_SENTENCES = (
    'The event "riot police deployed" blocks the event "protest rally".',
    'The event "political opposition" enables the event "political opposition called rally".',
    'The event "political opposition called rally" enables the event "protest rally".',
    'The event "music" enables the event "draws many people to festival".',
    'The event "dancing" enables the event "draws many people to festival".',
    'The event "speeches" enables the event "draws many people to festival".',
)


def random_graph(rng: Random, max_nodes: int = 8, max_edges: int = 12, acyclic: bool = False) -> CausalGraph:
    """A random multigraph without self-loops; with ``acyclic`` edges only point forward."""
    node_count = rng.randint(1, max_nodes)
    nodes = tuple(EventNode(f"n{i}", f"event {i} of graph") for i in range(node_count))
    edges = []
    if node_count > 1:
        for _ in range(rng.randint(0, max_edges)):
            if acyclic:
                source, target = sorted(rng.sample(range(node_count), 2))
            else:
                source, target = rng.sample(range(node_count), 2)
            relation = Relation.ENABLES if rng.random() < 0.7 else Relation.BLOCKS
            edges.append(CausalEdge(f"n{source}", f"n{target}", relation))
    return CausalGraph(nodes, tuple(edges))


def has_cycle_through(edges: list[CausalEdge], edge: CausalEdge) -> bool:
    def dfs(current: str, goal: str, visited: set[str]) -> bool:
        if current == goal:
            return True
        visited.add(current)
        for e in edges:
            if e.source == current and e.target not in visited:
                if dfs(e.target, goal, visited):
                    return True
        return False

    return dfs(edge.target, edge.source, set())


def feedback_removed_reference(graph: CausalGraph) -> list[int]:
    """Replay the removal rule with recursive DFS instead of the iterative walk."""
    remaining = list(enumerate(graph.edges))
    removed: list[int] = []
    while True:
        current = [edge for _, edge in remaining]
        cyclic = [i for i, edge in remaining if has_cycle_through(current, edge)]
        if not cyclic:
            return sorted(removed)
        victim = max(cyclic)
        remaining = [(i, edge) for i, edge in remaining if i != victim]
        removed.append(victim)


def order_reference(graph: CausalGraph) -> list[str]:
    """Node ids by Kahn's algorithm over the edges ``feedback_removed_reference`` keeps, ties to input order.

    Each step places the earliest node in input order whose retained
    predecessors are all placed.
    """
    removed = set(feedback_removed_reference(graph))
    retained = [edge for i, edge in enumerate(graph.edges) if i not in removed]
    ordering: list[str] = []
    while len(ordering) < len(graph.nodes):
        ready = [
            node.id
            for node in graph.nodes
            if node.id not in ordering
            and all(edge.source in ordering for edge in retained if edge.target == node.id)
        ]
        assert ready, "the retained edges form a cycle"
        ordering.append(ready[0])
    return ordering


def verbalized_order_reference(graph: CausalGraph) -> tuple[tuple[CausalEdge, ...], tuple[CausalEdge, ...]]:
    """The edges in the order ``verbalize_graph`` must emit them, and those of them set aside to break cycles.

    The retained edges sorted by (their source's ``order_reference``
    position, input index), then the set-aside edges in input order, which
    are also the second value.
    """
    removed = feedback_removed_reference(graph)
    position = {node_id: i for i, node_id in enumerate(order_reference(graph))}
    retained = sorted(
        (i for i in range(len(graph.edges)) if i not in removed), key=lambda i: (position[graph.edges[i].source], i)
    )
    cycle_report = tuple(graph.edges[i] for i in removed)
    return tuple(graph.edges[i] for i in retained) + cycle_report, cycle_report


def render_edges(graph: CausalGraph, edges: Sequence[CausalEdge]) -> tuple[str, ...]:
    """The grammar's sentence for each edge of ``graph`` in ``edges``, in that order."""
    labels = {node.id: node.label for node in graph.nodes}
    return tuple(f'The event "{labels[e.source]}" {e.relation.value} the event "{labels[e.target]}".' for e in edges)


_PASSAGE_CLAUSES = (
    "The council met at dawn",
    "A storm closed the harbor",
    "Workers walked off the line",
    "The mayor signed the order",
    "Trains resumed after the repair",
    "Crowds filled the square by noon",
    "The bridge reopened to traffic",
    "Negotiators reached a draft deal",
)

_QUESTION_STEMS = (
    'Did "{a}" cause "{b}"?',
    'Did "{a}" block "{b}"?',
    'Did "{a}" happen after "{b}"?',
    'Did "{a}" occur?',
    "Did the outcome depend on {a}?",
)


def synthetic_instance(index: int, rng: Random, *, id_prefix: str = "syn") -> QAInstance:
    node_count = rng.randint(3, 6)
    nodes = tuple(EventNode(f"e{i}", f"step {i} of plan {index}") for i in range(node_count))
    edges = []
    for source in range(node_count - 1):
        for target in range(source + 1, node_count):
            if rng.random() < 0.45:
                relation = Relation.ENABLES if rng.random() < 0.75 else Relation.BLOCKS
                edges.append(CausalEdge(f"e{source}", f"e{target}", relation))
    if not edges:
        edges.append(CausalEdge("e0", "e1", Relation.ENABLES))
    graph = CausalGraph(nodes, tuple(edges))

    sentence_count = rng.randint(2, 4)
    passage = " ".join(rng.choice(_PASSAGE_CLAUSES) + "." for _ in range(sentence_count))
    stem = _QUESTION_STEMS[index % len(_QUESTION_STEMS)]
    question = stem.format(a=nodes[0].label, b=nodes[-1].label)
    return QAInstance(
        instance_id=f"{id_prefix}-{index:04d}",
        passage=passage,
        question=question,
        gold_answer=Answer.YES if rng.random() < 0.265 else Answer.NO,
        graph=graph,
        category=list(QuestionCategory)[index % len(QuestionCategory)],
    )


def synthetic_split(count: int, seed: int, *, id_prefix: str = "syn") -> tuple[QAInstance, ...]:
    rng = Random(seed)
    return tuple(synthetic_instance(i, rng, id_prefix=id_prefix) for i in range(count))


def _graph_id(instance_id: str) -> str:
    """The ``graph_id`` a record carries, which no reader reads: ``g-{prefix}-{index}`` for ``{prefix}-{index:04d}``.

    ``synthetic_instance`` names its instances that way, so the datasets written from them keep their bytes.
    """
    prefix, _, index = instance_id.rpartition("-")
    return f"g-{prefix}-{int(index)}"


def instance_to_record(instance: QAInstance) -> dict:
    graphs = []
    if instance.graph is not None:
        graphs.append(
            {
                "graph_id": _graph_id(instance.instance_id),
                "kind": "instance",
                "nodes": [{"id": n.id, "label": n.label} for n in instance.graph.nodes],
                "edges": [
                    {"source": e.source, "target": e.target, "relation": e.relation.value}
                    for e in instance.graph.edges
                ],
            }
        )
    return {
        "instance_id": instance.instance_id,
        "passage": instance.passage,
        "question": instance.question,
        "answer": instance.gold_answer.value,
        "category": instance.category.value,
        "graphs": graphs,
    }


def write_dataset(path, instances) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for instance in instances:
            handle.write(json.dumps(instance_to_record(instance)) + "\n")


# The sample a sampled build keeps: the instances at ``sample_positions`` of their categories, in split order.
def stratified_sample(instances: Sequence[QAInstance], size: int, seed: int) -> tuple[QAInstance, ...]:
    positions = sample_positions([instance.category for instance in instances], size, seed)
    return tuple(instances[i] for i in positions)


# The quota allocation as it was before it moved to integer division, kept as
# the reference that corpus._allocate_quotas must match.
def allocate_quotas_reference(sizes: list[int], total: int) -> list[int]:
    population = sum(sizes)
    quotas = [Fraction(total * size, population) for size in sizes]
    counts = [int(quota) for quota in quotas]
    remainders = [quota - count for quota, count in zip(quotas, counts)]
    deficit = total - sum(counts)
    order = sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))
    for i in order:
        if deficit == 0:
            break
        if counts[i] < sizes[i]:
            counts[i] += 1
            deficit -= 1
    if deficit > 0:
        raise SamplingError("quota allocation failed to converge")
    return counts


def _trace_reference(instance: QAInstance, modality: Modality) -> str:
    """A chain-of-thought demonstration's trace: two steps of graph evidence for graph and tag, else of passage."""
    if modality in (Modality.GRAPH, Modality.TAG) and instance.graph is not None:
        evidence = verbalize_graph(instance.graph)[:2]
    else:
        evidence = split_sentences(instance.passage)[:2]
    steps = " ".join(f"{i}. {sentence}" for i, sentence in enumerate(evidence, start=1))
    prefix = f"Let's think step by step. {steps} " if steps else "Let's think step by step. "
    return prefix + canonical_answer_sentence(instance.gold_answer)


# The selection as it was before DemoPool, kept as the reference that
# select_demonstrations must match draw for draw.
def select_demonstrations_reference(
    pool: Sequence[QAInstance],
    config: PromptConfig,
    seed: int,
) -> list[Demonstration]:
    """Pick in-context demonstrations for a configuration, seeded.

    When the pool carries both labels, the selection always includes at
    least one yes and one no; a single-label pool is used as-is with a
    warning.
    """
    if config.demo_count == 0:
        return []
    if len(pool) < config.demo_count:
        raise InsufficientPoolError(
            f"need {config.demo_count} demonstrations, pool has {len(pool)} eligible instances"
        )

    rng = Random(seed)
    yes_positions = [i for i, instance in enumerate(pool) if instance.gold_answer is Answer.YES]
    no_positions = [i for i, instance in enumerate(pool) if instance.gold_answer is Answer.NO]

    if yes_positions and no_positions and config.demo_count >= 2:
        picked = {rng.choice(yes_positions), rng.choice(no_positions)}
        rest = [i for i in range(len(pool)) if i not in picked]
        picked.update(rng.sample(rest, config.demo_count - 2))
    else:
        if not yes_positions or not no_positions:
            logger.warning(
                "demonstration pool is label-imbalanced: %d yes / %d no",
                len(yes_positions),
                len(no_positions),
            )
        picked = set(rng.sample(range(len(pool)), config.demo_count))

    demos = []
    for position in sorted(picked):  # stable pool order
        instance = pool[position]
        trace = _trace_reference(instance, config.modality) if config.strategy is Strategy.COT else None
        demos.append(Demonstration(question=instance.question, answer=instance.gold_answer, reasoning_trace=trace))
    return demos


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


# Prompt rendering, assembly and truncation as they were before the
# layout was fixed in code and counts were composed from parts, kept as the
# reference that promptkit must match record for record. The reference
# parses ``REFERENCE_SKELETON``, the skeleton template promptkit once
# shipped, and renders it with a regular expression. The template must be
# passed explicitly.

REFERENCE_SKELETON = """\
### Instruction ###
{instruction}

### Text ###
{text}

### Graph ###
{graph}

### Examples ###
{examples}

### Question ###
{question}
### Answer ###
"""

_PLACEHOLDER_RE = re.compile(r"\{(instruction|text|graph|examples|question)\}")


class ReferenceTemplate:
    """``REFERENCE_SKELETON`` plus instruction wordings, parsed as the skeleton template engine did."""

    def __init__(self, instructions: dict[str, dict[str, str]]):
        self.blocks = [block for block in re.split(r"\n{2,}", REFERENCE_SKELETON.strip("\n")) if block.strip()]
        self.instructions = instructions
        for block in self.blocks:
            if not _PLACEHOLDER_RE.search(block):
                raise PromptError(f"template block without placeholder: {block!r}")

    def instruction_for(self, modality: Modality, with_examples: bool) -> str:
        table = self.instructions[modality.value]
        return table["with_examples" if with_examples else "zero"]


def _render_demo(demo: Demonstration) -> str:
    return f"Question: {demo.question}\nAnswer: {demo.reasoning_trace or demo.answer.value}"


def render_reference(parts: PromptParts, template: ReferenceTemplate) -> str:
    values = {
        "instruction": parts.instruction,
        "text": " ".join(parts.passage_sentences) if parts.passage_sentences is not None else None,
        "graph": "\n".join(parts.graph_sentences) if parts.graph_sentences is not None else None,
        "examples": "\n".join(_render_demo(d) for d in parts.demos) if parts.demos else None,
        "question": parts.question,
    }
    rendered_blocks = [
        _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], block)
        for block in template.blocks
        if all(values[name] is not None for name in _PLACEHOLDER_RE.findall(block))
    ]
    return "\n\n".join(rendered_blocks) + "\n"


def prompt_parts_reference(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    graph: tuple[str, ...] | None = None,
    *,
    template: ReferenceTemplate,
) -> PromptParts:
    """The parts of the full prompt for one instance under one configuration.

    ``graph`` holds the verbalized graph sentences, read only when the modality includes the graph.
    """
    return PromptParts(
        instruction=template.instruction_for(config.modality, config.demo_count > 0),
        question=instance.question,
        passage_sentences=split_sentences(instance.passage) if config.includes_text else None,
        graph_sentences=graph if config.includes_graph else None,
        demos=tuple(demos),
    )


def assemble_prompt_reference(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    graph: tuple[str, ...] | None = None,
    *,
    budget: int | None = None,
    template: ReferenceTemplate,
) -> PromptRecord:
    """Build the full prompt for one instance under one configuration, then truncate it to ``budget`` if one is given.

    Assembly is pure: identical inputs give byte-identical prompt text.
    """
    parts = prompt_parts_reference(instance, config, demos, graph, template=template)
    prompt_text = render_reference(parts, template)
    record = PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=prompt_text,
        token_count=count_tokens(prompt_text),
        truncation_applied=False,
    )
    return record if budget is None else truncate_to_budget_reference(record, parts, budget, template=template)


def truncate_to_budget_reference(
    record: PromptRecord,
    parts: PromptParts,
    budget: int,
    *,
    template: ReferenceTemplate,
) -> PromptRecord:
    """Shrink a prompt, rendered from ``parts``, to the token budget without touching instruction or question.

    Trim priority: passage sentences from the end, then demonstrations last
    first, then graph sentences from the end. The graph is only touched once
    the passage is gone, so structure survives longer than prose.
    """
    if record.token_count <= budget:
        return record

    skeleton = parts._replace(passage_sentences=None, graph_sentences=None, demos=())
    skeleton_text = render_reference(skeleton, template)
    if count_tokens(skeleton_text) > budget:
        raise BudgetError(f"budget {budget} is below the prompt skeleton size")

    while True:
        if parts.passage_sentences:
            parts = parts._replace(passage_sentences=parts.passage_sentences[:-1] or None)
        elif parts.demos:
            parts = parts._replace(demos=parts.demos[:-1])
        elif parts.graph_sentences:
            parts = parts._replace(graph_sentences=parts.graph_sentences[:-1] or None)
        else:
            break
        prompt_text = render_reference(parts, template)
        token_count = count_tokens(prompt_text)
        if token_count <= budget:
            return record._replace(prompt_text=prompt_text, token_count=token_count, truncation_applied=True)
    raise BudgetError(f"budget {budget} cannot be met")  # unreachable: skeleton fits


# Answer extraction as it was before the forward scan, kept as the reference
# for label and method. Its lazy regex is quadratic on outputs with many
# "Therefore," and no answer after them, and it raises ValueError on "yeſ"
# (U+017F folds to "s" under IGNORECASE), so feed it neither.
_CANONICAL_RE = re.compile(r"[Tt]herefore,.*?answer is: ((?i:yes|no))\b", re.DOTALL)
_STANDALONE_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def extract_answer_reference(raw_text: str) -> ExtractedAnswer:
    """Extract a yes/no answer from model output text."""
    if not raw_text:
        return UNPARSEABLE

    canonical = None
    for canonical in _CANONICAL_RE.finditer(raw_text):
        pass
    if canonical is not None:
        return ExtractedAnswer(
            answer=ExtractedLabel(canonical.group(1).lower()), method=ExtractionMethod.CANONICAL_REGEX
        )

    fallback = _STANDALONE_RE.search(raw_text)
    if fallback is not None:
        return ExtractedAnswer(
            answer=ExtractedLabel(fallback.group(1).lower()), method=ExtractionMethod.FALLBACK_FIRST_TOKEN
        )

    return UNPARSEABLE


# The line break, or the blank line, before a header line.
_SECTION_BREAK_RE = re.compile(r"\n\n?(?=^### \w+ ###$)", re.MULTILINE)


def prompt_sections(prompt_text: str) -> dict[str, str]:
    """Each section of a prompt by name, in prompt order: its header line and body, as the prompt spells them.

    Every ``### Name ###`` line of a prompt is a header: a dataset passage or
    question holding one is rejected at load, and a label holds no newline.
    """
    chunks = _SECTION_BREAK_RE.split(prompt_text.removesuffix("\n"))
    return {chunk.partition("\n")[0][len("### ") : -len(" ###")]: chunk for chunk in chunks}


# Occurrence as it was before the grounded labelling's queue, kept as the
# reference that ``graphcore.occurred_set`` must match on every graph. It
# takes up to |nodes| rounds of O(V+E) each.
def occurred_set_reference(graph: CausalGraph) -> set[str]:
    """Events still standing after blocking is applied, as a fixpoint.

    Start from every event occurred; an event is knocked out when some
    occurred event blocks it, and revived when all of its blockers are
    themselves knocked out. Iterating that rule two steps at a time gives a
    monotone sequence that stabilizes within |nodes| rounds regardless of
    node order. Mutually blocking cycles resolve optimistically: events in
    an unresolvable standoff count as occurred.
    """
    blockers: dict[str, list[str]] = {node.id: [] for node in graph.nodes}
    for edge in graph.edges:
        if edge.relation is Relation.BLOCKS:
            blockers[edge.target].append(edge.source)

    def survivors(state: set[str]) -> set[str]:
        return {node_id for node_id, sources in blockers.items() if not any(b in state for b in sources)}

    state = {node.id for node in graph.nodes}
    for _ in range(len(graph.nodes) + 1):
        advanced = survivors(survivors(state))
        if advanced == state:
            break
        state = advanced
    return state
