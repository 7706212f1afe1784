from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa import graphcore
from eventqa.corpus import CausalEdge, CausalGraph, EventNode, Relation
from eventqa.graphcore import (
    VerbalizationParseError,
    blocks,
    causes,
    graph_from_sentences,
    occurred,
    occurred_set,
    parse_sentence,
    verbalize_edge,
    verbalize_graph,
)


# --- independent reference implementations (kept deliberately separate from src) ---


def closure_reachable(graph: CausalGraph, start: str, goal: str, *, relation=Relation.ENABLES) -> bool:
    """Reachability by Floyd-Warshall closure, reflexive."""
    ids = [n.id for n in graph.nodes]
    index = {node_id: i for i, node_id in enumerate(ids)}
    n = len(ids)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for edge in graph.edges:
        if relation is None or edge.relation is relation:
            reach[index[edge.source]][index[edge.target]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach[index[start]][index[goal]]


def occurred_reference(graph: CausalGraph) -> set[str]:
    """Literal iteration of the blocking rule, two steps at a time."""
    node_ids = [n.id for n in graph.nodes]

    def apply_rule(state: set[str]) -> set[str]:
        result = set()
        for node_id in node_ids:
            blocked = any(
                edge.relation is Relation.BLOCKS and edge.target == node_id and edge.source in state
                for edge in graph.edges
            )
            if not blocked:
                result.add(node_id)
        return result

    states = [set(node_ids)]
    for _ in range(2 * len(node_ids) + 4):
        states.append(apply_rule(states[-1]))
    for i in range(0, len(states) - 2, 2):
        if states[i] == states[i + 2]:
            return states[i]
    raise AssertionError("reference fixpoint failed to stabilize")


def assert_valid_topology(graph: CausalGraph, ordering: list[str], removed: list[CausalEdge]) -> None:
    assert sorted(ordering) == sorted(n.id for n in graph.nodes)
    position = {node_id: i for i, node_id in enumerate(ordering)}
    removed_left = list(removed)
    for edge in graph.edges:
        if edge in removed_left:
            removed_left.remove(edge)
            continue
        assert position[edge.source] < position[edge.target]


# --- graph strategies ---------------------------------------------------------

node_counts = st.integers(min_value=1, max_value=8)


@st.composite
def graphs(draw, acyclic=False, max_nodes=8, max_edges=12):
    seed = draw(st.integers(0, 2**32 - 1))
    return helpers.random_graph(Random(seed), max_nodes=max_nodes, max_edges=max_edges, acyclic=acyclic)


# Up to 20 nodes and 45 edges; with few nodes, parallel edges are common.
dense_multigraphs = graphs(max_nodes=20, max_edges=45)


@st.composite
def blocking_multigraphs(draw):
    """Up to 9 nodes and 20 edges of either relation, self-loops, parallel edges and mutual blocks included.

    ``graph_from_sentences`` builds such a graph from whatever edge sentences a prompt holds.
    """
    count = draw(st.integers(1, 9))
    ends = st.integers(0, count - 1)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(Relation)), max_size=20))
    nodes = tuple(EventNode(f"n{i}", f"event {i}") for i in range(count))
    return CausalGraph(nodes, tuple(CausalEdge(f"n{s}", f"n{t}", relation) for s, t, relation in edges))


def blocks_chain(length: int) -> CausalGraph:
    """n0 blocks n1, n1 blocks n2, and so on."""
    nodes = tuple(EventNode(f"n{i}", f"event {i}") for i in range(length))
    return CausalGraph(nodes, tuple(CausalEdge(f"n{i}", f"n{i + 1}", Relation.BLOCKS) for i in range(length - 1)))


def graphcore_lines(call) -> int:
    """How many lines of ``graphcore`` ``call()`` executes, loop iterations included: a count of work, not time."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != graphcore.__file__:
            return None
        count += event == "line"
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


class TestTopologicalOrder:
    """``verbalize_graph`` emits edges by their source's topological position; see ``helpers.order_reference``."""

    def test_three_node_chain(self):
        graph = CausalGraph(
            (EventNode("music", "music"), EventNode("draw", "draws many people"), EventNode("gather", "gather")),
            (CausalEdge("music", "draw", Relation.ENABLES), CausalEdge("draw", "gather", Relation.ENABLES)),
        )
        assert helpers.order_reference(graph) == ["music", "draw", "gather"]
        assert helpers.verbalized_order_reference(graph) == (graph.edges, ())
        assert verbalize_graph(graph) == helpers.render_edges(graph, graph.edges)

    def test_empty_graph(self):
        assert verbalize_graph(CausalGraph((), ())) == ()

    def test_two_cycle_removes_later_edge(self):
        graph = CausalGraph(
            (EventNode("a", "a label"), EventNode("b", "b label")),
            (CausalEdge("a", "b", Relation.ENABLES), CausalEdge("b", "a", Relation.ENABLES)),
        )
        # Brute force: removing either edge alone yields a valid order, so the
        # deterministic rule must be what picks one.
        for drop in (0, 1):
            kept = graph.edges[1 - drop]
            assert not helpers.has_cycle_through([kept], kept)
        assert helpers.verbalized_order_reference(graph) == (graph.edges, (graph.edges[1],))
        # Setting the first edge aside instead would emit "b enables a" first.
        assert verbalize_graph(graph) == helpers.render_edges(graph, graph.edges)
        assert helpers.order_reference(graph) == ["a", "b"]

    def test_figure1_order_matches_expected(self, rally_graph):
        order, set_aside = helpers.verbalized_order_reference(rally_graph)
        assert set_aside == ()
        assert order[0].source == "riot_police_deployed"
        assert_valid_topology(rally_graph, helpers.order_reference(rally_graph), [])
        assert verbalize_graph(rally_graph) == helpers.render_edges(rally_graph, order)

    @settings(max_examples=300, deadline=None)
    @given(graph=st.one_of(graphs(), dense_multigraphs))
    def test_ordering_always_valid_and_removals_match_reference(self, graph):
        order, set_aside = helpers.verbalized_order_reference(graph)
        assert_valid_topology(graph, helpers.order_reference(graph), list(set_aside))
        assert verbalize_graph(graph) == helpers.render_edges(graph, order)

    def test_large_cyclic_graph_verbalizes_quickly(self):
        rng = Random(160)
        nodes = tuple(EventNode(f"n{i}", f"event {i} of graph") for i in range(160))
        pairs = [rng.sample(range(160), 2) for _ in range(320)]
        edges = tuple(CausalEdge(f"n{s}", f"n{t}", Relation.ENABLES) for s, t in pairs)
        graph = CausalGraph(nodes, edges)
        started = time.perf_counter()
        sentences = verbalize_graph(graph)
        elapsed = time.perf_counter() - started
        assert len(sentences) == len(edges)
        assert elapsed < 0.25, f"V=160, E=320 took {elapsed:.3f}s"

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs(acyclic=True))
    def test_acyclic_graphs_lose_nothing(self, graph):
        # No edge is set aside: every edge is emitted in its source's topological place.
        position = {node_id: i for i, node_id in enumerate(helpers.order_reference(graph))}
        order = sorted(graph.edges, key=lambda edge: position[edge.source])  # stable: input order within a source
        assert verbalize_graph(graph) == helpers.render_edges(graph, order)


class TestVerbalization:
    def test_blocks_sentence_bytes(self):
        nodes = {
            "r": EventNode("r", "riot police deployed"),
            "p": EventNode("p", "protest rally"),
        }
        sentence = verbalize_edge(CausalEdge("r", "p", Relation.BLOCKS), nodes)
        assert sentence == 'The event "riot police deployed" blocks the event "protest rally".'

    def test_enables_sentence_bytes(self):
        nodes = {
            "m": EventNode("m", "music"),
            "d": EventNode("d", "draws many people to festival"),
        }
        sentence = verbalize_edge(CausalEdge("m", "d", Relation.ENABLES), nodes)
        assert sentence == 'The event "music" enables the event "draws many people to festival".'

    def test_figure1_emits_six_sentences_in_appendix_order(self, rally_graph):
        assert verbalize_graph(rally_graph) == helpers.RALLY_GRAPH_SENTENCES

    def test_single_edge_graph(self):
        graph = CausalGraph(
            (EventNode("a", "first step"), EventNode("b", "second step")),
            (CausalEdge("a", "b", Relation.ENABLES),),
        )
        assert verbalize_graph(graph) == ('The event "first step" enables the event "second step".',)

    def test_shuffled_edge_input_still_topological(self, rally_graph):
        # Brute-force the set of emissions that respect topology: an edge may
        # not precede another whose source strictly precedes its own source.
        def valid_emission(order):
            for i, earlier in enumerate(order):
                for later in order[i + 1 :]:
                    if earlier.source != later.source and closure_reachable(
                        shuffled, later.source, earlier.source, relation=None
                    ):
                        return False
            return True

        rng = Random(9)
        edges = list(rally_graph.edges)
        rng.shuffle(edges)
        shuffled = CausalGraph(rally_graph.nodes, tuple(edges))
        sentences = verbalize_graph(shuffled)
        assert Counter(sentences) == Counter(verbalize_graph(rally_graph))
        valid = [order for order in permutations(shuffled.edges) if valid_emission(list(order))]
        assert sentences in {helpers.render_edges(shuffled, order) for order in valid}

    def test_every_edge_yields_exactly_one_sentence(self, rally_graph):
        assert len(verbalize_graph(rally_graph)) == len(rally_graph.edges)

    def test_round_trip_parse(self, rally_graph):
        rebuilt = graph_from_sentences(list(verbalize_graph(rally_graph)))
        labels = rally_graph.node_table()
        expected = Counter(
            (labels[e.source].label, e.relation, labels[e.target].label) for e in rally_graph.edges
        )
        got = Counter((e.source, e.relation, e.target) for e in rebuilt.edges)
        assert got == expected

    def test_parse_rejects_off_grammar_line(self):
        with pytest.raises(VerbalizationParseError):
            parse_sentence("The event music enables the event crowd.")

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs())
    def test_round_trip_recovers_edge_multiset(self, graph):
        rebuilt = graph_from_sentences(list(verbalize_graph(graph)))
        labels = graph.node_table()
        expected = Counter((labels[e.source].label, e.relation, labels[e.target].label) for e in graph.edges)
        got = Counter((e.source, e.relation, e.target) for e in rebuilt.edges)
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs())
    def test_edges_sharing_source_stay_contiguous_in_input_order(self, graph):
        order, set_aside = helpers.verbalized_order_reference(graph)
        assert verbalize_graph(graph) == helpers.render_edges(graph, order)
        # Cycle-removed edges sit at the tail; the retained prefix must keep
        # same-source edges contiguous.
        retained = order[: len(order) - len(set_aside)]
        seen_sources: list[str] = []
        for edge in retained:
            if seen_sources and seen_sources[-1] == edge.source:
                continue
            assert edge.source not in seen_sources, "source group split apart"
            seen_sources.append(edge.source)


class TestOracle:
    def test_causes_via_enables_chain(self, rally_graph):
        assert causes(rally_graph, "music", "draws_many_people")

    def test_direct_blocks_demo_edge(self, rally_graph):
        assert blocks(rally_graph, "riot_police_deployed", "protest_rally")

    def test_causes_is_reflexive(self, rally_graph):
        for node in rally_graph.nodes:
            assert causes(rally_graph, node.id, node.id)

    def test_blocks_edge_does_not_count_as_causes(self, rally_graph):
        assert not causes(rally_graph, "riot_police_deployed", "protest_rally")

    def test_occurred_blocking_chain(self):
        # a blocks b, b blocks c: b falls to a, which revives c.
        graph = CausalGraph(
            (EventNode("a", "a label"), EventNode("b", "b label"), EventNode("c", "c label")),
            (CausalEdge("a", "b", Relation.BLOCKS), CausalEdge("b", "c", Relation.BLOCKS)),
        )
        assert occurred_set(graph) == {"a", "c"}
        assert not occurred(graph, "b")
        assert occurred(graph, "c")

    def test_occurred_mutual_block_resolves_optimistically(self):
        graph = CausalGraph(
            (EventNode("a", "a label"), EventNode("b", "b label")),
            (CausalEdge("a", "b", Relation.BLOCKS), CausalEdge("b", "a", Relation.BLOCKS)),
        )
        assert occurred_set(graph) == {"a", "b"}

    @settings(max_examples=500, deadline=None)
    @given(graph=blocking_multigraphs())
    def test_occurred_set_matches_the_alternating_fixpoint(self, graph):
        assert occurred_set(graph) == helpers.occurred_set_reference(graph)

    def test_occurred_set_work_is_linear_on_a_blocks_chain(self):
        # The alternating fixpoint needs a round per two links of the chain, so its work quadruples.
        short, long = (graphcore_lines(lambda: occurred_set(blocks_chain(n))) for n in (250, 500))
        assert 1.8 < long / short < 2.2, (short, long)
        assert occurred_set(blocks_chain(500)) == {f"n{i}" for i in range(0, 500, 2)}

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs())
    def test_occurred_is_node_order_independent(self, graph):
        baseline = occurred_set(graph)
        reversed_graph = CausalGraph(tuple(reversed(graph.nodes)), tuple(reversed(graph.edges)))
        assert occurred_set(reversed_graph) == baseline

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), seed=st.integers(0, 2**16))
    def test_causes_monotone_under_edge_addition(self, graph, seed):
        rng = Random(seed)
        if len(graph.nodes) < 2:
            return
        source, target = rng.sample([n.id for n in graph.nodes], 2)
        extended = CausalGraph(graph.nodes, graph.edges + (CausalEdge(source, target, Relation.ENABLES),))
        for a in graph.nodes:
            for b in graph.nodes:
                if causes(graph, a.id, b.id):
                    assert causes(extended, a.id, b.id)

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs())
    def test_oracle_agrees_with_brute_force(self, graph):
        for a in graph.nodes:
            for b in graph.nodes:
                assert causes(graph, a.id, b.id) == closure_reachable(graph, a.id, b.id)
        expected_occurred = occurred_reference(graph)
        for node in graph.nodes:
            assert occurred(graph, node.id) == (node.id in expected_occurred)
