from __future__ import annotations

import time
from collections import Counter
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa.corpus import Answer, CausalEdge, CausalGraph, EventNode, GraphKind, Relation
from eventqa.graphcore import (
    GraphQueryError,
    QueryKind,
    StructuredQuery,
    VerbalizationParseError,
    graph_from_sentences,
    occurred_set,
    oracle_answer,
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


class TestTopologicalOrder:
    """``verbalize_graph`` emits edges by their source's topological position; see ``helpers.order_reference``."""

    def test_three_node_chain(self):
        graph = CausalGraph(
            "chain",
            GraphKind.INSTANCE,
            (EventNode("music", "music"), EventNode("draw", "draws many people"), EventNode("gather", "gather")),
            (CausalEdge("music", "draw", Relation.ENABLES), CausalEdge("draw", "gather", Relation.ENABLES)),
        )
        assert helpers.order_reference(graph) == ["music", "draw", "gather"]
        verbalized = verbalize_graph(graph)
        assert verbalized.edge_order == graph.edges
        assert verbalized.cycle_report == ()

    def test_empty_graph(self):
        assert verbalize_graph(CausalGraph("empty", GraphKind.INSTANCE, (), ())) == ((), (), ())

    def test_two_cycle_removes_later_edge(self):
        graph = CausalGraph(
            "cycle",
            GraphKind.INSTANCE,
            (EventNode("a", "a label"), EventNode("b", "b label")),
            (CausalEdge("a", "b", Relation.ENABLES), CausalEdge("b", "a", Relation.ENABLES)),
        )
        # Brute force: removing either edge alone yields a valid order, so the
        # deterministic rule must be what picks one.
        for drop in (0, 1):
            kept = graph.edges[1 - drop]
            assert not helpers.has_cycle_through([kept], kept)
        verbalized = verbalize_graph(graph)
        assert verbalized.cycle_report == (graph.edges[1],)
        assert verbalized.edge_order == graph.edges
        assert helpers.order_reference(graph) == ["a", "b"]

    def test_figure1_order_matches_expected(self, rally_graph):
        verbalized = verbalize_graph(rally_graph)
        assert verbalized.cycle_report == ()
        assert verbalized.edge_order[0].source == "riot_police_deployed"
        assert_valid_topology(rally_graph, helpers.order_reference(rally_graph), [])
        assert (verbalized.edge_order, verbalized.cycle_report) == helpers.verbalized_order_reference(rally_graph)

    @settings(max_examples=300, deadline=None)
    @given(graph=st.one_of(graphs(), dense_multigraphs))
    def test_ordering_always_valid_and_removals_match_reference(self, graph):
        verbalized = verbalize_graph(graph)
        assert_valid_topology(graph, helpers.order_reference(graph), list(verbalized.cycle_report))
        assert (verbalized.edge_order, verbalized.cycle_report) == helpers.verbalized_order_reference(graph)

    def test_large_cyclic_graph_verbalizes_quickly(self):
        rng = Random(160)
        nodes = tuple(EventNode(f"n{i}", f"event {i} of graph") for i in range(160))
        pairs = [rng.sample(range(160), 2) for _ in range(320)]
        edges = tuple(CausalEdge(f"n{s}", f"n{t}", Relation.ENABLES) for s, t in pairs)
        graph = CausalGraph("large", GraphKind.INSTANCE, nodes, edges)
        started = time.perf_counter()
        verbalized = verbalize_graph(graph)
        elapsed = time.perf_counter() - started
        assert verbalized.cycle_report
        assert elapsed < 0.25, f"V=160, E=320 took {elapsed:.3f}s"

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs(acyclic=True))
    def test_acyclic_graphs_lose_nothing(self, graph):
        assert verbalize_graph(graph).cycle_report == ()


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

    def test_self_loop_rejected_upstream(self):
        graph = CausalGraph(
            "bad",
            GraphKind.INSTANCE,
            (EventNode("a", "a label"),),
            (CausalEdge("a", "a", Relation.ENABLES),),
        )
        with pytest.raises(ValueError, match="self-loop"):
            graph.validate()

    def test_figure1_emits_six_sentences_in_appendix_order(self, rally_graph):
        verbalized = verbalize_graph(rally_graph)
        assert verbalized.sentences == helpers.RALLY_GRAPH_SENTENCES
        assert verbalized.cycle_report == ()

    def test_single_edge_graph(self):
        graph = CausalGraph(
            "one",
            GraphKind.INSTANCE,
            (EventNode("a", "first step"), EventNode("b", "second step")),
            (CausalEdge("a", "b", Relation.ENABLES),),
        )
        verbalized = verbalize_graph(graph)
        assert verbalized.sentences == ('The event "first step" enables the event "second step".',)

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
        shuffled = CausalGraph("shuffled", GraphKind.INSTANCE, rally_graph.nodes, tuple(edges))
        verbalized = verbalize_graph(shuffled)
        original = verbalize_graph(rally_graph)
        assert Counter(verbalized.sentences) == Counter(original.sentences)
        valid = [order for order in permutations(shuffled.edges) if valid_emission(list(order))]
        assert tuple(verbalized.edge_order) in set(valid)

    def test_every_edge_yields_exactly_one_sentence(self, rally_graph):
        verbalized = verbalize_graph(rally_graph)
        assert len(verbalized.sentences) == len(rally_graph.edges)

    def test_round_trip_parse(self, rally_graph):
        verbalized = verbalize_graph(rally_graph)
        rebuilt = graph_from_sentences(list(verbalized.sentences))
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
        verbalized = verbalize_graph(graph)
        rebuilt = graph_from_sentences(list(verbalized.sentences))
        labels = graph.node_table()
        expected = Counter((labels[e.source].label, e.relation, labels[e.target].label) for e in graph.edges)
        got = Counter((e.source, e.relation, e.target) for e in rebuilt.edges)
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs())
    def test_edges_sharing_source_stay_contiguous_in_input_order(self, graph):
        verbalized = verbalize_graph(graph)
        # Cycle-removed edges sit at the tail; the retained prefix must keep
        # same-source edges contiguous.
        retained = verbalized.edge_order[: len(verbalized.edge_order) - len(verbalized.cycle_report)]
        seen_sources: list[str] = []
        for edge in retained:
            if seen_sources and seen_sources[-1] == edge.source:
                continue
            assert edge.source not in seen_sources, "source group split apart"
            seen_sources.append(edge.source)


class TestOracle:
    def test_causes_via_enables_chain(self, rally_graph):
        query = StructuredQuery(QueryKind.CAUSES, "music", "draws_many_people")
        assert oracle_answer(rally_graph, query) is Answer.YES

    def test_direct_blocks_demo_edge(self, rally_graph):
        query = StructuredQuery(QueryKind.DIRECT_BLOCKS, "riot_police_deployed", "protest_rally")
        assert oracle_answer(rally_graph, query) is Answer.YES

    def test_causes_is_reflexive(self, rally_graph):
        for node in rally_graph.nodes:
            assert oracle_answer(rally_graph, StructuredQuery(QueryKind.CAUSES, node.id, node.id)) is Answer.YES

    def test_blocks_edge_does_not_count_as_causes(self, rally_graph):
        query = StructuredQuery(QueryKind.CAUSES, "riot_police_deployed", "protest_rally")
        assert oracle_answer(rally_graph, query) is Answer.NO

    def test_unknown_id_raises(self, rally_graph):
        with pytest.raises(GraphQueryError):
            oracle_answer(rally_graph, StructuredQuery(QueryKind.CAUSES, "ghost", "music"))

    def test_occurred_blocking_chain(self):
        # a blocks b, b blocks c: b falls to a, which revives c.
        graph = CausalGraph(
            "chain",
            GraphKind.INSTANCE,
            (EventNode("a", "a label"), EventNode("b", "b label"), EventNode("c", "c label")),
            (CausalEdge("a", "b", Relation.BLOCKS), CausalEdge("b", "c", Relation.BLOCKS)),
        )
        assert occurred_set(graph) == {"a", "c"}
        assert oracle_answer(graph, StructuredQuery(QueryKind.OCCURRED, "b")) is Answer.NO
        assert oracle_answer(graph, StructuredQuery(QueryKind.OCCURRED, "c")) is Answer.YES

    def test_occurred_mutual_block_resolves_optimistically(self):
        graph = CausalGraph(
            "standoff",
            GraphKind.INSTANCE,
            (EventNode("a", "a label"), EventNode("b", "b label")),
            (CausalEdge("a", "b", Relation.BLOCKS), CausalEdge("b", "a", Relation.BLOCKS)),
        )
        assert occurred_set(graph) == {"a", "b"}

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs())
    def test_occurred_is_node_order_independent(self, graph):
        baseline = occurred_set(graph)
        reversed_graph = CausalGraph(
            graph.graph_id, graph.kind, tuple(reversed(graph.nodes)), tuple(reversed(graph.edges))
        )
        assert occurred_set(reversed_graph) == baseline

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), seed=st.integers(0, 2**16))
    def test_causes_monotone_under_edge_addition(self, graph, seed):
        rng = Random(seed)
        if len(graph.nodes) < 2:
            return
        source, target = rng.sample([n.id for n in graph.nodes], 2)
        extended = CausalGraph(
            graph.graph_id,
            graph.kind,
            graph.nodes,
            graph.edges + (CausalEdge(source, target, Relation.ENABLES),),
        )
        for a in graph.nodes:
            for b in graph.nodes:
                before = oracle_answer(graph, StructuredQuery(QueryKind.CAUSES, a.id, b.id))
                if before is Answer.YES:
                    assert oracle_answer(extended, StructuredQuery(QueryKind.CAUSES, a.id, b.id)) is Answer.YES

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs())
    def test_oracle_agrees_with_brute_force(self, graph):
        for a in graph.nodes:
            for b in graph.nodes:
                expected = closure_reachable(graph, a.id, b.id)
                got = oracle_answer(graph, StructuredQuery(QueryKind.CAUSES, a.id, b.id))
                assert (got is Answer.YES) == expected
        expected_occurred = occurred_reference(graph)
        for node in graph.nodes:
            got = oracle_answer(graph, StructuredQuery(QueryKind.OCCURRED, node.id))
            assert (got is Answer.YES) == (node.id in expected_occurred)
