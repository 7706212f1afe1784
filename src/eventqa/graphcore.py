"""Causal graphs, their verbalization, and the causal queries the oracle asks of a graph.

Verbalization grammar (fixed, documented for round-tripping):

    The event "<source label>" enables the event "<target label>".
    The event "<source label>" blocks the event "<target label>".

One sentence per edge, one sentence per line, terminal period, straight
ASCII double quotes. Sentences are emitted in topological order of their
source nodes so causal flow reads forward; edges sharing a source stay
contiguous in input order to keep references close together. Edges removed
to break cycles are still verbalized, appended last in input order.
``verbalize_graph`` returns the sentences, in that order, as a tuple.

The oracle's questions are the forms of ``_QUESTION_FORMS``, each naming
the query it asks; ``oracle_answer`` runs it on the events a question names.
Each query is linear in the size of the graph.
"""

from __future__ import annotations

import heapq
import re
from collections import defaultdict
from enum import Enum
from typing import Callable, NamedTuple

from .vocab import Answer


class Relation(str, Enum):
    ENABLES = "enables"
    BLOCKS = "blocks"


class EventNode(NamedTuple):
    id: str
    label: str


class CausalEdge(NamedTuple):
    source: str
    target: str
    relation: Relation


class CausalGraph(NamedTuple):
    """Directed multigraph of events with enables/blocks edges.

    Node and edge order is preserved from the source data; downstream
    ordering rules (topological tie-breaks, emission order) depend on it.
    A graph read from a dataset has unique node ids, labels without quotes
    or newlines, and edges between two distinct nodes of its own.
    """

    nodes: tuple[EventNode, ...]
    edges: tuple[CausalEdge, ...]

    def node_table(self) -> dict[str, EventNode]:
        return {node.id: node for node in self.nodes}


class VerbalizationParseError(Exception):
    """Raised when a line does not match the edge-sentence grammar."""


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


def verbalize_edge(edge: CausalEdge, nodes: dict[str, EventNode]) -> str:
    """Render one edge into its fixed-format sentence; ``nodes`` holds both endpoints, as a dataset graph does."""
    source, target = nodes[edge.source], nodes[edge.target]
    verb = "enables" if edge.relation is Relation.ENABLES else "blocks"
    return f'The event "{source.label}" {verb} the event "{target.label}".'


def verbalize_graph(graph: CausalGraph) -> tuple[str, ...]:
    """Serialize every edge into one sentence, topologically ordered by source, set-aside edges last."""
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
    rank: dict[int, int] = {}  # node index -> topological position
    while available:
        current = heapq.heappop(available)
        rank[current] = len(rank)
        for nxt in successors[current]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                heapq.heappush(available, nxt)

    set_aside = set(removed)
    retained = sorted((i for i in range(len(edges)) if i not in set_aside), key=lambda i: (rank[edges[i][0]], i))
    nodes = graph.node_table()
    return tuple(verbalize_edge(graph.edges[i], nodes) for i in retained + removed)


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
    return CausalGraph(tuple(nodes.values()), tuple(edges))


def occurred_set(graph: CausalGraph) -> set[str]:
    """Events still standing once blocking is applied: every event not knocked out by an event that stands.

    An event stands (is IN) when it has no blocker, or once all of its
    blockers are knocked out (OUT); an event blocked by an event that stands
    is knocked out. A queue of standing events applies that rule in
    O(V+E): each blocks edge counts once against its target, an event goes
    IN when its last blocker goes OUT, and every event it blocks goes OUT.
    Whatever is neither IN nor OUT at the end, mutually blocking events in
    an unresolvable standoff, resolves optimistically: it counts as occurred.
    The result does not depend on node or edge order.
    """
    blocked: dict[str, list[str]] = {node.id: [] for node in graph.nodes}  # the events each one blocks
    pending = dict.fromkeys(blocked, 0)  # blockers not yet OUT, per event
    for edge in graph.edges:
        if edge.relation is Relation.BLOCKS:
            blocked[edge.source].append(edge.target)
            pending[edge.target] += 1
    standing = [event for event, count in pending.items() if not count]
    out: set[str] = set()
    for event in standing:  # grows as events go IN
        for target in blocked[event]:
            if target not in out:
                out.add(target)
                for later in blocked[target]:
                    pending[later] -= 1
                    if not pending[later]:
                        standing.append(later)
    return set(blocked) - out


# --- the oracle's queries, on node ids, which are labels in a rebuilt graph -------


def causes(graph: CausalGraph, cause: str, effect: str) -> bool:
    """Whether an enables-chain leads from ``cause`` to ``effect``; reflexive: every event causes itself."""
    adjacency: defaultdict[str, list[str]] = defaultdict(list)
    for edge in graph.edges:
        if edge.relation is Relation.ENABLES:
            adjacency[edge.source].append(edge.target)
    return _reaches(adjacency, cause, effect)


def blocks(graph: CausalGraph, blocker: str, blocked: str) -> bool:
    """Whether a single blocks edge runs from ``blocker`` to ``blocked``; blocking is not transitive."""
    return any(e.relation is Relation.BLOCKS and e.source == blocker and e.target == blocked for e in graph.edges)


def happened_after(graph: CausalGraph, later: str, earlier: str) -> bool:
    """Whether ``later`` went ahead despite ``earlier``: it did unless ``earlier`` blocks it directly."""
    return not blocks(graph, earlier, later)


def occurred(graph: CausalGraph, event: str) -> bool:
    """Whether ``event`` still stands once blocking is applied (see ``occurred_set``)."""
    return event in occurred_set(graph)


# --- the oracle's questions ------------------------------------------------------

# Each question form: its pattern, and the query it asks of the labels it quotes,
# in the order quoted. Forms are tried in order; the first that matches decides.
_QUESTION_FORMS = (
    (re.compile(r'^Did "(.+?)" cause "(.+?)"\?$'), causes),
    (re.compile(r'^Did "(.+?)" block "(.+?)"\?$'), blocks),
    (re.compile(r'^Did "(.+?)" happen after "(.+?)"\?$'), happened_after),
    (re.compile(r'^Did "(.+?)" (?:happen|occur)\?$'), occurred),
)


def _resolve_label(span: str, graph: CausalGraph) -> str | None:
    """The label ``span`` names: the label it equals, else the one label it begins, else the one label holding it."""
    for test in (str.__eq__, str.startswith, str.__contains__):
        found = [node.label for node in graph.nodes if test(node.label, span)]
        if len(found) == 1:
            return found[0]
    return None


def parse_question(question: str, graph: CausalGraph) -> tuple[Callable[..., bool], tuple[str, ...]] | None:
    """The (query, labels) a question asks, each quoted span resolved to one label of ``graph``; None if unparsed."""
    for pattern, query in _QUESTION_FORMS:
        match = pattern.match(question)
        if match:
            labels = tuple(_resolve_label(span, graph) for span in match.groups())
            return None if None in labels else (query, labels)
    return None


def oracle_answer(graph: CausalGraph, question: str) -> Answer | None:
    """Answer a grammar question from ``graph`` alone, a graph ``graph_from_sentences`` rebuilt; None if unparsed."""
    parsed = parse_question(question, graph)
    if parsed is None:
        return None
    query, labels = parsed
    return Answer.YES if query(graph, *labels) else Answer.NO
