from __future__ import annotations

import functools
import json
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa import promptkit
from eventqa.corpus import Answer
from eventqa.graphcore import verbalize_graph
from eventqa.manifest import as_row, canonical_json
from eventqa.promptkit import (
    BudgetError,
    Demonstration,
    DemoPool,
    InsufficientPoolError,
    assemble_prompt,
    canonical_answer_sentence,
    select_demonstrations,
    split_sentences,
)
from eventqa.vocab import (
    DEFAULT_DEMO_COUNT,
    PROMPT_ROW,
    SECTION_ANSWER,
    SECTION_EXAMPLES,
    SECTION_GRAPH,
    SECTION_INSTRUCTION,
    SECTION_QUESTION,
    SECTION_TEXT,
    Modality,
    PromptConfig,
    PromptError,
    Strategy,
    all_configs,
    count_tokens,
    parse_selector,
)

# Section presence by configuration: text iff modality uses the passage,
# graph iff it uses the graph, examples iff the strategy carries demos.
COMPONENT_MATRIX = {
    ("zero", "text"): {"Text"},
    ("zero", "graph"): {"Graph"},
    ("zero", "tag"): {"Text", "Graph"},
    ("few", "text"): {"Text", "Examples"},
    ("few", "graph"): {"Graph", "Examples"},
    ("few", "tag"): {"Text", "Graph", "Examples"},
    ("cot", "text"): {"Text", "Examples"},
    ("cot", "graph"): {"Graph", "Examples"},
    ("cot", "tag"): {"Text", "Graph", "Examples"},
}


def _build(instance, config, pool=None, seed=0, budget=None):
    demos = select_demonstrations(pool or DemoPool(), config, seed=seed)
    verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
    return assemble_prompt(instance, config, demos, verbalized, budget=budget)


def _sections(record):
    return helpers.prompt_sections(record.prompt_text)


@pytest.fixture
def demo_pool():
    return DemoPool(helpers.synthetic_split(12, seed=41, id_prefix="pool"))


class TestPromptConfig:
    def test_nine_configs(self):
        assert len(all_configs()) == 9
        assert len({c.selector for c in all_configs()}) == 9

    def test_selector_round_trip(self):
        for config in all_configs():
            assert parse_selector(config.selector) == config

    def test_graphs_alias(self):
        assert parse_selector("few-graphs").modality is Modality.GRAPH

    def test_zero_demo_count_tied_to_zero_strategy(self):
        assert PromptConfig(Strategy.ZERO, Modality.TEXT).demo_count == 0
        assert PromptConfig(Strategy.FEW, Modality.TEXT).demo_count == DEFAULT_DEMO_COUNT
        assert PromptConfig(Strategy.COT, Modality.TAG).demo_count == DEFAULT_DEMO_COUNT

    def test_a_config_is_its_strategy_and_modality(self):
        assert PromptConfig._fields == ("strategy", "modality")
        with pytest.raises(TypeError):  # derived from the strategy, not settable
            PromptConfig(Strategy.FEW, Modality.TEXT, demo_count=2)

    def test_unknown_selector(self):
        with pytest.raises(PromptError):
            parse_selector("sometimes-text")


class TestTokenCounting:
    def test_empty_string(self):
        assert count_tokens("") == 0

    def test_sample_sentence_frozen_count(self):
        # Hand-tokenized under the documented splitter: word runs and single
        # punctuation marks.
        expected_tokens = [
            "The", "event", '"', "music", '"', "enables", "the", "event", '"',
            "draws", "many", "people", "to", "festival", '"', ".",
        ]
        sentence = 'The event "music" enables the event "draws many people to festival".'
        assert count_tokens(sentence) == len(expected_tokens) == 16

    @given(a=st.text(max_size=80), b=st.text(max_size=80))
    def test_monotone_under_concatenation(self, a, b):
        assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))


class TestAssembly:
    def test_component_matrix_all_nine(self, rally_instance, demo_pool):
        for config in all_configs():
            record = _build(rally_instance, config, demo_pool)
            optional = set(_sections(record)) - {SECTION_INSTRUCTION, SECTION_QUESTION, SECTION_ANSWER}
            assert optional == COMPONENT_MATRIX[(config.strategy.value, config.modality.value)], config.selector

    def test_zero_text_sections_in_order(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT))
        assert list(_sections(record)) == [SECTION_INSTRUCTION, SECTION_TEXT, SECTION_QUESTION, SECTION_ANSWER]

    def test_sections_spell_the_prompt(self, rally_instance, demo_pool):
        # A blank line between sections, the answer header right under the question, one trailing newline.
        record = _build(rally_instance, PromptConfig(Strategy.COT, Modality.TAG), demo_pool)
        *sections, answer = _sections(record).values()
        assert answer == f"### {SECTION_ANSWER} ###"
        assert record.prompt_text == "\n\n".join(sections) + f"\n{answer}\n"

    def test_assembly_is_pure(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.COT, Modality.TAG)
        first = _build(rally_instance, config, demo_pool, seed=5)
        second = _build(rally_instance, config, demo_pool, seed=5)
        assert first == second

    def test_tag_counts_dominate_single_modalities(self, demo_pool, synthetic_split):
        for strategy in Strategy:
            for instance in synthetic_split[:10]:
                counts = {}
                for modality in Modality:
                    config = PromptConfig(strategy, modality)
                    counts[modality] = _build(instance, config, demo_pool).token_count
                assert counts[Modality.TAG] >= counts[Modality.TEXT]
                assert counts[Modality.TAG] >= counts[Modality.GRAPH]

    def test_record_round_trips_through_dict(self, rally_instance, demo_pool):
        record = _build(rally_instance, PromptConfig(Strategy.FEW, Modality.TAG), demo_pool)
        row = json.loads(canonical_json(as_row(record)))
        assert row["prompt_text"] == record.prompt_text
        assert row["token_count"] == record.token_count
        assert PROMPT_ROW.read(row) == record
        assert row["tokenizer"] == record.tokenizer == "simple"


class TestTruncation:
    def test_within_budget_is_identity(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TAG))
        assert _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TAG), budget=record.token_count) == record
        assert not record.truncation_applied

    def test_drops_final_passage_sentence_first(self, rally_instance):
        config = PromptConfig(Strategy.ZERO, Modality.TAG)
        record = _build(rally_instance, config)
        sentences = split_sentences(rally_instance.passage)
        # Derived expectation: dropping the final sentence (and its joining
        # space) removes exactly that sentence's tokens.
        last_tokens = count_tokens(sentences[-1])
        truncated = _build(rally_instance, config, budget=record.token_count - 1)
        assert truncated.token_count == record.token_count - last_tokens
        assert truncated.truncation_applied
        assert _sections(truncated)[SECTION_GRAPH] == _sections(record)[SECTION_GRAPH]

    def test_graph_only_prompt_trims_graph_keeps_question(self, rally_instance):
        config = PromptConfig(Strategy.ZERO, Modality.GRAPH)
        record = _build(rally_instance, config)
        truncated = _build(rally_instance, config, budget=record.token_count - 1)
        assert SECTION_QUESTION in _sections(truncated)
        assert rally_instance.question in truncated.prompt_text
        assert truncated.token_count <= record.token_count - 1

    def test_passage_exhausted_before_graph_touched(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        graph = _sections(record)[SECTION_GRAPH]
        truncated = _build(rally_instance, config, demo_pool, budget=max(count_tokens(graph) + 40, 60))
        # The graph only shrinks once the passage and demos are gone.
        assert _sections(truncated)[SECTION_GRAPH] != graph
        assert SECTION_TEXT not in _sections(truncated)
        assert SECTION_EXAMPLES not in _sections(truncated)

    def test_truncation_never_raises_count(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.COT, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        demos = select_demonstrations(demo_pool, config, seed=0)
        parts = helpers.prompt_parts_reference(
            rally_instance, config, demos, verbalize_graph(rally_instance.graph), template=_REFERENCE_TEMPLATE
        )
        skeleton = parts._replace(passage_sentences=None, graph_sentences=None, demos=())
        floor = count_tokens(helpers.render_reference(skeleton, _REFERENCE_TEMPLATE))
        for budget in range(record.token_count, floor, -7):
            truncated = _build(rally_instance, config, demo_pool, budget=budget)
            assert truncated.token_count <= budget

    def test_budget_below_skeleton_fails(self, rally_instance):
        with pytest.raises(BudgetError, match="below the prompt skeleton size"):
            _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT), budget=5)

    def test_truncated_prompt_is_rendered_once(self, rally_instance, demo_pool, monkeypatch):
        config = PromptConfig(Strategy.COT, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        rendered = []
        original = promptkit._render
        monkeypatch.setattr(promptkit, "_render", lambda *args: rendered.append(args) or original(*args))
        truncated = _build(rally_instance, config, demo_pool, budget=record.token_count // 2)
        assert truncated.truncation_applied
        assert len(rendered) == 1


class TestDemonstrationSelection:
    def test_pool_of_exactly_three_returned_in_stable_order(self, demo_pool):
        pool = DemoPool(demo_pool[:3])
        config = PromptConfig(Strategy.FEW, Modality.TEXT)
        demos = select_demonstrations(pool, config, seed=1)
        assert [d.question for d in demos] == [i.question for i in pool]

    def test_deterministic_for_fixed_seed(self, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TAG)
        first = select_demonstrations(demo_pool, config, seed=9)
        second = select_demonstrations(demo_pool, config, seed=9)
        assert first == second

    def test_zero_strategy_selects_nothing(self, demo_pool):
        assert select_demonstrations(demo_pool, PromptConfig(Strategy.ZERO, Modality.TEXT), seed=1) == []

    def test_mixed_pool_yields_both_labels(self, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TEXT)
        for seed in range(8):
            demos = select_demonstrations(demo_pool, config, seed=seed)
            labels = {d.answer for d in demos}
            assert labels == {Answer.YES, Answer.NO}

    def test_single_label_pool_warns(self, demo_pool, caplog):
        all_yes = DemoPool([i._replace(gold_answer=Answer.YES) for i in demo_pool[:3]])
        with caplog.at_level("WARNING"):
            demos = select_demonstrations(all_yes, PromptConfig(Strategy.FEW, Modality.TEXT), seed=0)
        assert len(demos) == 3
        assert any("imbalanced" in message for message in caplog.messages)

    def test_single_label_pool_warns_once_per_pool(self, demo_pool, caplog):
        instances = [i._replace(gold_answer=Answer.YES) for i in demo_pool[:4]]
        all_yes, again = DemoPool(instances), DemoPool(instances)
        with caplog.at_level("WARNING"):
            for seed in range(50):
                for config in (PromptConfig(Strategy.FEW, Modality.TEXT), PromptConfig(Strategy.COT, Modality.GRAPH)):
                    select_demonstrations(all_yes, config, seed=seed)
            select_demonstrations(again, PromptConfig(Strategy.FEW, Modality.TEXT), seed=0)
        assert sum("imbalanced" in message for message in caplog.messages) == 2

    def test_insufficient_pool_fails(self, demo_pool):
        with pytest.raises(InsufficientPoolError):
            select_demonstrations(DemoPool(demo_pool[:2]), PromptConfig(Strategy.FEW, Modality.TEXT), seed=0)

    def test_cot_demos_carry_canonical_traces(self, demo_pool):
        config = PromptConfig(Strategy.COT, Modality.GRAPH)
        demos = select_demonstrations(demo_pool, config, seed=3)
        for demo in demos:
            assert demo.reasoning_trace
            assert demo.reasoning_trace.endswith(canonical_answer_sentence(demo.answer))

    def test_few_demos_have_no_traces(self, demo_pool):
        demos = select_demonstrations(demo_pool, PromptConfig(Strategy.FEW, Modality.GRAPH), seed=3)
        assert all(demo.reasoning_trace is None for demo in demos)


@st.composite
def _pool_and_calls(draw):
    """A pool (mixed, single-label, exactly ``DEFAULT_DEMO_COUNT`` long or up to 40) and selection calls against it.

    Besides the nine configurations, the calls ask for 1 to 12 demonstrations,
    so the draw of the positions not yet picked covers many pool sizes and
    sample sizes.
    """
    size = draw(st.one_of(st.just(DEFAULT_DEMO_COUNT), st.integers(0, 9), st.integers(10, 40)))
    labels = draw(
        st.one_of(
            st.lists(st.sampled_from(Answer), min_size=size, max_size=size),
            st.sampled_from(Answer).map(lambda label: [label] * size),
        )
    )
    with_graph = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    instances = helpers.synthetic_split(size, seed=draw(st.integers(0, 1000)), id_prefix="pool")
    pool = [
        instance._replace(gold_answer=label, graph=instance.graph if graph else None)
        for instance, label, graph in zip(instances, labels, with_graph)
    ]
    calls = draw(
        st.lists(
            st.tuples(st.sampled_from(all_configs()), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=8,
        )
    )
    return pool, calls


def _outcome(select, *args, **kwargs):
    try:
        return select(*args, **kwargs)
    except InsufficientPoolError:
        return InsufficientPoolError


class TestDemoPool:
    @settings(max_examples=200, deadline=None)
    @given(case=_pool_and_calls())
    def test_reused_pool_matches_reference(self, case):
        pool, calls = case
        prepared = DemoPool(pool)
        for config, seed in calls:
            expected = _outcome(helpers.select_demonstrations_reference, pool, config, seed)
            assert _outcome(select_demonstrations, prepared, config, seed) == expected

    def test_each_demo_rendered_once(self, demo_pool, monkeypatch):
        traced = []
        monkeypatch.setattr(promptkit, "_trace_for", lambda instance, from_graph: traced.append(instance) or "trace")
        prepared = DemoPool(demo_pool)
        config = PromptConfig(Strategy.COT, Modality.GRAPH)
        first = select_demonstrations(prepared, config, seed=5)
        again = select_demonstrations(prepared, config, seed=5)
        assert again == first
        assert all(a is b for a, b in zip(first, again))
        assert len(traced) == DEFAULT_DEMO_COUNT


    def test_modalities_share_each_distinct_demonstration(self, demo_pool):
        graphless = DemoPool([demo_pool[0]._replace(graph=None)])
        for position, instance in enumerate(demo_pool):
            assert instance.graph is not None
            few = demo_pool.demonstration(position, Modality.TEXT, False)
            assert demo_pool.demonstration(position, Modality.TAG, False) is few
            assert demo_pool.demonstration(position, Modality.GRAPH, False) is few
            # A trace differs only by where its evidence comes from: the graph for graph and tag.
            cot = demo_pool.demonstration(position, Modality.GRAPH, True)
            assert demo_pool.demonstration(position, Modality.TAG, True) is cot
            assert demo_pool.demonstration(position, Modality.TEXT, True) is not cot
            assert demo_pool.demonstration(position, Modality.TEXT, True) != cot
        # Without a graph every modality's trace draws on the passage, so it is one demonstration.
        cot = graphless.demonstration(0, Modality.TEXT, True)
        assert graphless.demonstration(0, Modality.GRAPH, True) is cot
        assert graphless.demonstration(0, Modality.TAG, True) is cot


class TestLengthOrdering:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_strategy_ordering_per_instance_sample(self, seed):
        split = helpers.synthetic_split(6, seed=seed)
        pool = DemoPool(helpers.synthetic_split(8, seed=seed + 1, id_prefix="pool"))
        for modality in Modality:
            means = {}
            for strategy in Strategy:
                config = PromptConfig(strategy, modality)
                counts = [_build(i, config, pool).token_count for i in split]
                means[strategy] = sum(counts) / len(counts)
            assert means[Strategy.ZERO] < means[Strategy.FEW] < means[Strategy.COT]


# Sentences the composed counts are checked on: ASCII, non-ASCII and no final punctuation.
_SENTENCES = (
    "The council met at dawn.",
    "A storm closed the harbor!",
    "Did trains resume after the repair?",
    "Im Café « Zürich » sprach man über naïve Pläne — niemand widersprach.",
    "東京の会議は延期された。",
    "snake_case words and 42 numbers",
)


_REFERENCE_TEMPLATE = helpers.ReferenceTemplate(promptkit.default_template())
_assemble_reference = functools.partial(helpers.assemble_prompt_reference, template=_REFERENCE_TEMPLATE)


@st.composite
def _prompt_case(draw):
    sentence = st.one_of(st.sampled_from(_SENTENCES), st.text(max_size=30))
    passage = draw(
        st.one_of(
            st.lists(sentence, min_size=1, max_size=8).map(" ".join),
            sentence,  # often a single sentence, sometimes whitespace only
        )
    )
    graph = helpers.random_graph(Random(draw(st.integers(0, 10**6))), max_nodes=6, max_edges=8)
    if draw(st.booleans()):
        graph = graph._replace(nodes=tuple(node._replace(label=node.label + " — café") for node in graph.nodes))
    instance = helpers.rally_instance()._replace(
        passage=passage,
        question=draw(st.one_of(st.sampled_from(_SENTENCES), st.text(min_size=1, max_size=40))),
        graph=graph,
    )
    config = draw(st.sampled_from(all_configs()))
    demos = [
        Demonstration(
            question=draw(sentence),
            answer=draw(st.sampled_from(Answer)),
            reasoning_trace=draw(st.one_of(st.none(), sentence)) if config.strategy is Strategy.COT else None,
        )
        for _ in range(config.demo_count)
    ]
    return instance, config, demos


def _record_or_error(assemble, instance, config, demos, verbalized, budget):
    try:
        result = assemble(instance, config, demos, verbalized, budget=budget)
    except BudgetError as exc:
        return BudgetError, str(exc)
    return result


class TestComposedCounts:
    @settings(max_examples=400, deadline=None)
    @given(case=_prompt_case(), data=st.data())
    def test_records_match_reference(self, case, data):
        instance, config, demos = case
        verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
        expected = _assemble_reference(instance, config, demos, verbalized)
        record = assemble_prompt(instance, config, demos, verbalized)
        assert record == expected

        budget = data.draw(st.integers(0, expected.token_count + 2), label="budget")
        case = instance, config, demos, verbalized, budget
        assert _record_or_error(assemble_prompt, *case) == _record_or_error(_assemble_reference, *case)

    def test_empty_graph_keeps_its_header_and_misses_the_budget_like_reference(self, rally_instance):
        edgeless = rally_instance.graph._replace(edges=())
        config = PromptConfig(Strategy.ZERO, Modality.GRAPH)
        parts = helpers.prompt_parts_reference(
            rally_instance, config, (), verbalize_graph(edgeless), template=_REFERENCE_TEMPLATE
        )
        assert parts.graph_sentences == ()
        skeleton = parts._replace(graph_sentences=None)
        budget = count_tokens(helpers.render_reference(skeleton, _REFERENCE_TEMPLATE))
        case = rally_instance, config, (), verbalize_graph(edgeless), budget
        outcome = _record_or_error(assemble_prompt, *case)
        assert outcome == (BudgetError, f"budget {budget} cannot be met")
        assert outcome == _record_or_error(_assemble_reference, *case)

    def test_simple_counts_are_composed_without_a_full_count(self, rally_instance, demo_pool, monkeypatch):
        counted = []
        original = promptkit.count_tokens
        monkeypatch.setattr(promptkit, "count_tokens", lambda text: counted.append(text) or original(text))
        promptkit._part_counts.cache_clear()
        config = PromptConfig(Strategy.COT, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        truncated = _build(rally_instance, config, demo_pool, budget=record.token_count // 2)
        assert truncated.truncation_applied
        assert counted
        assert not [text for text in counted if "\n\n" in text]  # parts are counted, never a rendered prompt

    def test_long_passage_truncates_in_linear_time(self, rally_instance):
        passage = " ".join(f"Sentence {i} tells of the council, the storm and the harbor." for i in range(1000))
        instance, config = rally_instance._replace(passage=passage), PromptConfig(Strategy.ZERO, Modality.TEXT)
        assert assemble_prompt(instance, config).token_count > 12_000
        started = time.perf_counter()
        truncated = assemble_prompt(instance, config, budget=100)
        assert time.perf_counter() - started < 0.1
        assert truncated.token_count <= 100 and truncated.token_count == count_tokens(truncated.prompt_text)
