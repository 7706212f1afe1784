"""Shared builders for test corpora and random graphs."""

from __future__ import annotations

import logging
import re
from fractions import Fraction
from random import Random
from typing import Collection, Sequence

from eventqa.corpus import (
    Answer,
    CausalEdge,
    CausalGraph,
    DatasetSplit,
    EventNode,
    GraphKind,
    QAInstance,
    QuestionCategory,
    Relation,
    SamplingError,
)
from eventqa.extract import UNPARSEABLE, ExtractedAnswer, ExtractedLabel, ExtractionMethod, _byte_span
from eventqa.graphcore import VerbalizedGraph
from eventqa.promptkit import (
    SECTION_ANSWER,
    SECTION_EXAMPLES,
    SECTION_GRAPH,
    SECTION_INSTRUCTION,
    SECTION_QUESTION,
    SECTION_TEXT,
    BudgetError,
    Demonstration,
    InsufficientPoolError,
    Modality,
    PromptAssemblyError,
    PromptConfig,
    PromptError,
    PromptParts,
    PromptRecord,
    _trace_for,
    count_tokens,
    split_sentences,
)

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
    graph = CausalGraph("rally-instance", GraphKind.INSTANCE, nodes, edges)
    graph.validate()
    return graph


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
    """A random validated multigraph; with ``acyclic`` edges only point forward."""
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
    graph = CausalGraph(f"rand-{rng.random():.12f}", GraphKind.INSTANCE, nodes, tuple(edges))
    graph.validate()
    return graph


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
    """The ``edge_order`` and ``cycle_report`` that ``verbalize_graph`` must give.

    The retained edges sorted by (their source's ``order_reference``
    position, input index), then the set-aside edges in input order, which
    are also the cycle report.
    """
    removed = feedback_removed_reference(graph)
    position = {node_id: i for i, node_id in enumerate(order_reference(graph))}
    retained = sorted(
        (i for i in range(len(graph.edges)) if i not in removed), key=lambda i: (position[graph.edges[i].source], i)
    )
    cycle_report = tuple(graph.edges[i] for i in removed)
    return tuple(graph.edges[i] for i in retained) + cycle_report, cycle_report


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
    graph = CausalGraph(f"g-{id_prefix}-{index}", GraphKind.INSTANCE, nodes, tuple(edges))

    sentence_count = rng.randint(2, 4)
    passage = " ".join(rng.choice(_PASSAGE_CLAUSES) + "." for _ in range(sentence_count))
    stem = _QUESTION_STEMS[index % len(_QUESTION_STEMS)]
    question = stem.format(a=nodes[0].label, b=nodes[-1].label)
    instance = QAInstance(
        instance_id=f"{id_prefix}-{index:04d}",
        passage=passage,
        question=question,
        gold_answer=Answer.YES if rng.random() < 0.265 else Answer.NO,
        graph=graph,
        category=list(QuestionCategory)[index % len(QuestionCategory)],
    )
    instance.validate()
    return instance


def synthetic_split(count: int, seed: int, *, id_prefix: str = "syn", name: str = "synthetic") -> DatasetSplit:
    rng = Random(seed)
    instances = tuple(synthetic_instance(i, rng, id_prefix=id_prefix) for i in range(count))
    return DatasetSplit(name=name, instances=instances)


def instance_to_record(instance: QAInstance) -> dict:
    graphs = []
    if instance.graph is not None:
        graphs.append(
            {
                "graph_id": instance.graph.graph_id,
                "kind": instance.graph.kind.value,
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


# The selection as it was before DemoPool, kept as the reference that
# select_demonstrations must match draw for draw.
def select_demonstrations_reference(
    pool: Sequence[QAInstance],
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
    eligible = [instance for instance in pool if instance.instance_id not in exclude_ids]
    if len(eligible) < config.demo_count:
        raise InsufficientPoolError(
            f"need {config.demo_count} demonstrations, pool has {len(eligible)} eligible instances"
        )

    rng = Random(seed)
    yes_positions = [i for i, instance in enumerate(eligible) if instance.gold_answer is Answer.YES]
    no_positions = [i for i, instance in enumerate(eligible) if instance.gold_answer is Answer.NO]

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

    demos = []
    for position in sorted(picked):  # stable pool order
        instance = eligible[position]
        demos.append(
            Demonstration(
                question=instance.question,
                answer=instance.gold_answer,
                source_modality=config.modality,
                reasoning_trace=_trace_for(instance, config.modality) if config.include_reasoning_traces else None,
            )
        )
    return demos


# Prompt rendering, assembly and truncation as they were before the
# skeleton was compiled once and counts were composed from parts, kept as
# the reference that promptkit must match record for record. The template
# must be passed explicitly.

_PLACEHOLDER_SECTIONS = {
    "instruction": SECTION_INSTRUCTION,
    "text": SECTION_TEXT,
    "graph": SECTION_GRAPH,
    "examples": SECTION_EXAMPLES,
    "question": SECTION_QUESTION,
}

_PLACEHOLDER_RE = re.compile(r"\{(instruction|text|graph|examples|question)\}")


class ReferenceTemplate:
    """Skeleton plus instruction wordings, parsed as promptkit.PromptTemplate did."""

    def __init__(self, skeleton: str, instructions: dict[str, dict[str, str]]):
        self.blocks = [block for block in re.split(r"\n{2,}", skeleton.strip("\n")) if block.strip()]
        self.instructions = instructions
        for block in self.blocks:
            if not _PLACEHOLDER_RE.search(block):
                raise PromptError(f"template block without placeholder: {block!r}")

    def instruction_for(self, modality: Modality, with_examples: bool) -> str:
        table = self.instructions[modality.value]
        return table["with_examples" if with_examples else "zero"]


def _render_demo(demo: Demonstration) -> str:
    return f"Question: {demo.question}\nAnswer: {demo.rendered_answer()}"


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def render_reference(parts: PromptParts, template: ReferenceTemplate) -> tuple[str, dict[str, tuple[int, int]]]:
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


def prompt_parts_reference(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    verbalized: VerbalizedGraph | None = None,
    *,
    template: ReferenceTemplate,
) -> PromptParts:
    """The parts of the full prompt for one instance under one configuration.

    The verbalized graph must be supplied exactly when the modality includes
    the graph; demonstrations must match the configured count and modality.
    """
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

    return PromptParts(
        instruction=template.instruction_for(config.modality, config.includes_examples),
        question=instance.question,
        passage_sentences=split_sentences(instance.passage) if config.includes_text else None,
        graph_sentences=tuple(verbalized.sentences) if config.includes_graph else None,
        demos=tuple(demos),
    )


def assemble_prompt_reference(
    instance: QAInstance,
    config: PromptConfig,
    demos: Sequence[Demonstration] = (),
    verbalized: VerbalizedGraph | None = None,
    *,
    budget: int | None = None,
    template: ReferenceTemplate,
) -> PromptRecord:
    """Build the full prompt for one instance under one configuration, then truncate it to ``budget`` if one is given.

    Assembly is pure: identical inputs give byte-identical prompt text.
    """
    parts = prompt_parts_reference(instance, config, demos, verbalized, template=template)
    prompt_text, sections = render_reference(parts, template)
    record = PromptRecord(
        instance_id=instance.instance_id,
        config=config,
        prompt_text=prompt_text,
        token_count=count_tokens(prompt_text),
        truncation_applied=False,
        sections=sections,
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
    skeleton_text, _ = render_reference(skeleton, template)
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
        prompt_text, sections = render_reference(parts, template)
        token_count = count_tokens(prompt_text)
        if token_count <= budget:
            return record._replace(
                prompt_text=prompt_text,
                token_count=token_count,
                truncation_applied=True,
                sections=sections,
            )
    raise BudgetError(f"budget {budget} cannot be met")  # unreachable: skeleton fits


# Answer extraction as it was before the forward scan, kept as the reference
# for label, method and span. Its lazy regex is quadratic on outputs with many
# "Therefore," and no answer after them, and it raises ValueError on "yeſ"
# (U+017F folds to "s" under IGNORECASE), so feed it neither.
_CANONICAL_RE = re.compile(r"[Tt]herefore,.*?answer is: ((?i:yes|no))", re.DOTALL)
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
            answer=ExtractedLabel(canonical.group(1).lower()),
            method=ExtractionMethod.CANONICAL_REGEX,
            matched_span=_byte_span(raw_text, canonical.start(), canonical.end()),
        )

    fallback = _STANDALONE_RE.search(raw_text)
    if fallback is not None:
        return ExtractedAnswer(
            answer=ExtractedLabel(fallback.group(1).lower()),
            method=ExtractionMethod.FALLBACK_FIRST_TOKEN,
            matched_span=_byte_span(raw_text, fallback.start(), fallback.end()),
        )

    return UNPARSEABLE
