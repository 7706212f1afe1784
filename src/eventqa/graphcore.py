"""Causal-graph verbalization and deterministic causal queries.

Verbalization grammar (fixed, documented for round-tripping):

    The event "<source label>" enables the event "<target label>".
    The event "<source label>" blocks the event "<target label>".

One sentence per edge, one sentence per line, terminal period, straight
ASCII double quotes. Sentences are emitted in topological order of their
source nodes so causal flow reads forward; edges sharing a source stay
contiguous in input order to keep references close together. Edges removed
to break cycles are still verbalized, appended last in input order.
"""

from __future__ import annotations

import heapq
import re
from collections import defaultdict
from enum import Enum
from typing import NamedTuple

from .corpus import CausalEdge, CausalGraph, EventNode, Relation
from .vocab import Answer, GraphKind


class GraphQueryError(Exception):
    """Raised when a structured query references an unknown event id."""


class VerbalizationParseError(Exception):
    """Raised when a line does not match the edge-sentence grammar."""


class QueryKind(Enum):
    CAUSES = "causes"
    DIRECT_BLOCKS = "direct_blocks"
    OCCURRED = "occurred"


class StructuredQuery(NamedTuple):
    kind: QueryKind
    subject: str
    object: str | None = None


class VerbalizedGraph(NamedTuple):
    sentences: tuple[str, ...]
    edge_order: tuple[CausalEdge, ...]
    cycle_report: tuple[CausalEdge, ...]


def _reaches(successors, start, goal) -> bool:
    """Whether ``goal`` is reachable from ``start`` (reflexively) along ``successors``."""
    stack, seen = [start], {start}
    while stack:
        current = stack.pop()
        if current == goal:
            return True
        for nxt in successors[current]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _feedback_edge_indices(edges: list[tuple[int, int]], successors: list[list[int]]) -> list[int]:
    """Input indices of edges set aside to make the graph acyclic.

    Deterministic rule: while any edge lies on a cycle, set aside the
    cyclic edge latest in input order. An edge lies on a cycle iff its
    target reaches back to its source through the edges still retained.

    ``edges`` holds (source, target) node indices and ``successors`` the
    targets of every edge per source; on return ``successors`` holds only
    the retained edges. One backward scan computes the rule in
    O(E·(V+E)): setting an edge aside never puts another edge on a cycle,
    so the rule's victims come in decreasing input order, and edge i is a
    victim iff it lies on a cycle once every victim after it is set aside.
    A path from a target back to its source never needs an edge leaving
    that source, so edge i (or a parallel copy) may stay in the map while
    it is tested.
    """
    removed: list[int] = []
    for i in range(len(edges) - 1, -1, -1):
        source, target = edges[i]
        if _reaches(successors, target, source):
            successors[source].remove(target)
            removed.append(i)
    return removed[::-1]


def _order(graph: CausalGraph) -> tuple[list[str], list[int]]:
    """Node ids in topological order, and the input indices of set-aside edges."""
    index = {node.id: i for i, node in enumerate(graph.nodes)}
    edges = [(index[edge.source], index[edge.target]) for edge in graph.edges]
    successors: list[list[int]] = [[] for _ in graph.nodes]
    for source, target in edges:
        successors[source].append(target)
    removed = _feedback_edge_indices(edges, successors)

    in_degree = [0] * len(graph.nodes)
    for targets in successors:
        for target in targets:
            in_degree[target] += 1
    # Ties are broken by input node order: the heap pops the lowest index.
    available = [i for i, degree in enumerate(in_degree) if degree == 0]
    ordering: list[str] = []
    while available:
        current = heapq.heappop(available)
        ordering.append(graph.nodes[current].id)
        for nxt in successors[current]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                heapq.heappush(available, nxt)
    return ordering, removed


def verbalize_edge(edge: CausalEdge, nodes: dict[str, EventNode]) -> str:
    """Render one edge into its fixed-format sentence."""
    try:
        source, target = nodes[edge.source], nodes[edge.target]
    except KeyError as exc:
        raise GraphQueryError(f"edge endpoint {exc.args[0]!r} not in node table") from None
    verb = "enables" if edge.relation is Relation.ENABLES else "blocks"
    return f'The event "{source.label}" {verb} the event "{target.label}".'


def verbalize_graph(graph: CausalGraph) -> VerbalizedGraph:
    """Serialize every edge into one sentence, topologically ordered by source."""
    ordering, removed_indices = _order(graph)
    position = {node_id: i for i, node_id in enumerate(ordering)}

    set_aside = set(removed_indices)
    retained = [i for i in range(len(graph.edges)) if i not in set_aside]
    retained.sort(key=lambda i: (position[graph.edges[i].source], i))
    emitted = tuple(graph.edges[i] for i in retained + removed_indices)

    nodes = graph.node_table()
    sentences = tuple(verbalize_edge(edge, nodes) for edge in emitted)
    removed = tuple(graph.edges[i] for i in removed_indices)
    return VerbalizedGraph(sentences=sentences, edge_order=emitted, cycle_report=removed)


_SENTENCE_RE = re.compile(r'^The event "(?P<source>.+?)" (?P<verb>enables|blocks) the event "(?P<target>.+?)"\.$')


def parse_sentence(sentence: str) -> tuple[str, Relation, str]:
    """Invert ``verbalize_edge``: sentence -> (source label, relation, target label)."""
    match = _SENTENCE_RE.match(sentence)
    if not match:
        raise VerbalizationParseError(f"not an edge sentence: {sentence!r}")
    relation = Relation.ENABLES if match.group("verb") == "enables" else Relation.BLOCKS
    return match.group("source"), relation, match.group("target")


def graph_from_sentences(sentences: list[str]) -> CausalGraph:
    """Rebuild a graph from edge sentences, using labels as node ids."""
    nodes: dict[str, EventNode] = {}
    edges: list[CausalEdge] = []
    for sentence in sentences:
        source, relation, target = parse_sentence(sentence)
        for label in (source, target):
            if label not in nodes:
                nodes[label] = EventNode(id=label, label=label)
        edges.append(CausalEdge(source=source, target=target, relation=relation))
    return CausalGraph(graph_id="parsed", kind=GraphKind.INSTANCE, nodes=tuple(nodes.values()), edges=tuple(edges))


def _enables_reachable(graph: CausalGraph, start: str, goal: str) -> bool:
    # Reflexive by convention: every event causes itself via the empty chain.
    adjacency: defaultdict[str, list[str]] = defaultdict(list)
    for edge in graph.edges:
        if edge.relation is Relation.ENABLES:
            adjacency[edge.source].append(edge.target)
    return _reaches(adjacency, start, goal)


def occurred_set(graph: CausalGraph) -> set[str]:
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


def oracle_answer(graph: CausalGraph, query: StructuredQuery) -> Answer:
    """Answer a structured causal query from the graph alone.

    CAUSES follows enables-chains (reflexively); DIRECT_BLOCKS tests for a
    single blocking edge, with no transitivity; OCCURRED runs the blocking
    fixpoint of ``occurred_set``.
    """
    known = {node.id for node in graph.nodes}
    if query.subject not in known:
        raise GraphQueryError(f"unknown event id {query.subject!r}")
    if query.kind is QueryKind.OCCURRED:
        if query.object is not None:
            raise GraphQueryError("occurrence queries take a single event")
        return Answer.YES if query.subject in occurred_set(graph) else Answer.NO
    if query.object not in known:
        raise GraphQueryError(f"unknown event id {query.object!r}")
    if query.kind is QueryKind.CAUSES:
        hit = _enables_reachable(graph, query.subject, query.object)
    else:
        hit = any(
            edge.relation is Relation.BLOCKS and edge.source == query.subject and edge.target == query.object
            for edge in graph.edges
        )
    return Answer.YES if hit else Answer.NO
