"""Shared builders for test corpora and random graphs."""

from __future__ import annotations

import logging
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
)
from eventqa.promptkit import Demonstration, InsufficientPoolError, PromptConfig, _trace_for

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
