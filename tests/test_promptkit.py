from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa import promptkit
from eventqa.corpus import Answer
from eventqa.graphcore import verbalize_graph
from eventqa.promptkit import (
    SECTION_ANSWER,
    SECTION_GRAPH,
    SECTION_INSTRUCTION,
    SECTION_QUESTION,
    SECTION_TEXT,
    DEFAULT_DEMO_COUNT,
    BudgetError,
    Demonstration,
    DemoPool,
    InsufficientPoolError,
    Modality,
    PromptAssemblyError,
    PromptConfig,
    PromptError,
    Strategy,
    UnknownTokenizerError,
    all_configs,
    assemble_prompt,
    canonical_answer_sentence,
    count_tokens,
    parse_selector,
    select_demonstrations,
    split_sentences,
    truncate_to_budget,
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


def _build(instance, config, pool=None, seed=0):
    demos = select_demonstrations(pool or [], config, seed=seed, exclude_ids={instance.instance_id})
    verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
    return assemble_prompt(instance, config, demos, verbalized)


@pytest.fixture
def demo_pool():
    return list(helpers.synthetic_split(12, seed=41, id_prefix="pool").instances)


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
        assert PromptConfig(Strategy.FEW, Modality.TEXT).demo_count == 3
        with pytest.raises(ValueError):
            PromptConfig(Strategy.FEW, Modality.TEXT, demo_count=0)
        with pytest.raises(ValueError):
            PromptConfig(Strategy.ZERO, Modality.TEXT, demo_count=2)

    def test_traces_tied_to_cot(self):
        assert PromptConfig(Strategy.COT, Modality.TAG).include_reasoning_traces
        assert not PromptConfig(Strategy.FEW, Modality.TAG).include_reasoning_traces
        with pytest.raises(ValueError):
            PromptConfig(Strategy.FEW, Modality.TAG, include_reasoning_traces=True)

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

    def test_unknown_tokenizer(self):
        with pytest.raises(UnknownTokenizerError):
            count_tokens("x", tokenizer="nope")

    @given(a=st.text(max_size=80), b=st.text(max_size=80))
    def test_monotone_under_concatenation(self, a, b):
        assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))


class TestAssembly:
    def test_component_matrix_all_nine(self, rally_instance, demo_pool):
        for config in all_configs():
            record = _build(rally_instance, config, demo_pool)
            optional = set(record.sections) - {SECTION_INSTRUCTION, SECTION_QUESTION, SECTION_ANSWER}
            assert optional == COMPONENT_MATRIX[(config.strategy.value, config.modality.value)], config.selector

    def test_zero_text_sections_in_order(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT))
        names = sorted(record.sections, key=lambda name: record.sections[name][0])
        assert names == [SECTION_INSTRUCTION, SECTION_TEXT, SECTION_QUESTION, SECTION_ANSWER]

    def test_section_ranges_slice_the_prompt(self, rally_instance, demo_pool):
        record = _build(rally_instance, PromptConfig(Strategy.COT, Modality.TAG), demo_pool)
        data = record.prompt_text.encode("utf-8")
        for name, (start, end) in record.sections.items():
            chunk = data[start:end].decode("utf-8")
            assert chunk.startswith(f"### {name} ###")

    def test_graph_required_for_graph_modality(self, rally_instance):
        with pytest.raises(PromptAssemblyError):
            assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], None)

    def test_graph_rejected_for_text_modality(self, rally_instance):
        verbalized = verbalize_graph(rally_instance.graph)
        with pytest.raises(PromptAssemblyError):
            assemble_prompt(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT), [], verbalized)

    def test_demo_count_enforced(self, rally_instance, worked_demos):
        config = PromptConfig(Strategy.COT, Modality.GRAPH)  # expects 3
        with pytest.raises(PromptAssemblyError):
            assemble_prompt(rally_instance, config, worked_demos, verbalize_graph(rally_instance.graph))

    def test_demo_modality_enforced(self, rally_instance, worked_demos):
        config = PromptConfig(Strategy.COT, Modality.TAG, demo_count=2)
        with pytest.raises(PromptAssemblyError):
            assemble_prompt(rally_instance, config, worked_demos, verbalize_graph(rally_instance.graph))

    def test_assembly_is_pure(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.COT, Modality.TAG)
        first = _build(rally_instance, config, demo_pool, seed=5)
        second = _build(rally_instance, config, demo_pool, seed=5)
        assert first.prompt_text == second.prompt_text
        assert first.sections == second.sections

    def test_tag_counts_dominate_single_modalities(self, demo_pool, synthetic_split):
        for strategy in Strategy:
            for instance in synthetic_split.instances[:10]:
                counts = {}
                for modality in Modality:
                    config = PromptConfig(strategy, modality)
                    counts[modality] = _build(instance, config, demo_pool).token_count
                assert counts[Modality.TAG] >= counts[Modality.TEXT]
                assert counts[Modality.TAG] >= counts[Modality.GRAPH]

    def test_record_round_trips_through_dict(self, rally_instance, demo_pool):
        record = _build(rally_instance, PromptConfig(Strategy.FEW, Modality.TAG), demo_pool)
        from eventqa.promptkit import PromptRecord

        clone = PromptRecord.from_dict(record.to_dict())
        assert clone.prompt_text == record.prompt_text
        assert clone.config == record.config
        assert clone.sections == record.sections


class TestTruncation:
    def test_within_budget_is_identity(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TAG))
        assert truncate_to_budget(record, record.token_count) is record

    def test_drops_final_passage_sentence_first(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TAG))
        sentences = split_sentences(rally_instance.passage)
        # Derived expectation: dropping the final sentence (and its joining
        # space) removes exactly that sentence's tokens.
        last_tokens = count_tokens(sentences[-1])
        truncated = truncate_to_budget(record, record.token_count - 1)
        assert truncated.token_count == record.token_count - last_tokens
        assert truncated.truncation_applied
        graph_span = truncated.sections[SECTION_GRAPH]
        original_span = record.sections[SECTION_GRAPH]
        data, original_data = truncated.prompt_text.encode(), record.prompt_text.encode()
        assert data[graph_span[0] : graph_span[1]] == original_data[original_span[0] : original_span[1]]

    def test_graph_only_prompt_trims_graph_keeps_question(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.GRAPH))
        truncated = truncate_to_budget(record, record.token_count - 1)
        assert SECTION_QUESTION in truncated.sections
        assert rally_instance.question in truncated.prompt_text
        assert truncated.token_count <= record.token_count - 1

    def test_passage_exhausted_before_graph_touched(self, rally_instance, demo_pool):
        record = _build(rally_instance, PromptConfig(Strategy.FEW, Modality.TAG), demo_pool)
        graph_tokens = count_tokens("\n".join(record.parts.graph_sentences))
        skeleton_floor = record.token_count - count_tokens(rally_instance.passage) - 200
        truncated = truncate_to_budget(record, max(graph_tokens + 40, 60))
        # The graph only shrinks once the passage and demos are gone.
        if truncated.parts.graph_sentences != record.parts.graph_sentences:
            assert truncated.parts.passage_sentences is None
            assert truncated.parts.demos == ()
        assert skeleton_floor < record.token_count  # sanity on the fixture

    def test_truncation_never_raises_count(self, rally_instance, demo_pool):
        from dataclasses import replace

        from eventqa.promptkit import _render, default_template

        record = _build(rally_instance, PromptConfig(Strategy.COT, Modality.TAG), demo_pool)
        skeleton = replace(record.parts, passage_sentences=None, graph_sentences=None, demos=())
        floor = count_tokens(_render(skeleton, default_template())[0])
        for budget in range(record.token_count, floor, -7):
            truncated = truncate_to_budget(record, budget)
            assert truncated.token_count <= budget

    def test_budget_below_skeleton_fails(self, rally_instance):
        record = _build(rally_instance, PromptConfig(Strategy.ZERO, Modality.TEXT))
        with pytest.raises(BudgetError):
            truncate_to_budget(record, 5)


class TestDemonstrationSelection:
    def test_pool_of_exactly_three_returned_in_stable_order(self, demo_pool):
        pool = demo_pool[:3]
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
        all_yes = [replace(i, gold_answer=Answer.YES) for i in demo_pool[:3]]
        with caplog.at_level("WARNING"):
            demos = select_demonstrations(all_yes, PromptConfig(Strategy.FEW, Modality.TEXT), seed=0)
        assert len(demos) == 3
        assert any("imbalanced" in message for message in caplog.messages)

    def test_exclusion_removes_eval_instance(self, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TEXT)
        excluded = demo_pool[0].instance_id
        for seed in range(6):
            demos = select_demonstrations(demo_pool, config, seed=seed, exclude_ids={excluded})
            assert demo_pool[0].question not in [d.question for d in demos]

    def test_insufficient_pool_fails(self, demo_pool):
        with pytest.raises(InsufficientPoolError):
            select_demonstrations(demo_pool[:2], PromptConfig(Strategy.FEW, Modality.TEXT), seed=0)

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
    """A pool (mixed, single-label or exactly ``DEFAULT_DEMO_COUNT`` long) and selection calls against it."""
    size = draw(st.one_of(st.just(DEFAULT_DEMO_COUNT), st.integers(0, 9)))
    labels = draw(
        st.one_of(
            st.lists(st.sampled_from(Answer), min_size=size, max_size=size),
            st.sampled_from(Answer).map(lambda label: [label] * size),
        )
    )
    with_graph = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    instances = helpers.synthetic_split(size, seed=draw(st.integers(0, 1000)), id_prefix="pool").instances
    pool = [
        replace(instance, gold_answer=label, graph=instance.graph if graph else None)
        for instance, label, graph in zip(instances, labels, with_graph)
    ]
    ids = [instance.instance_id for instance in pool]
    exclude = st.sets(st.sampled_from(ids + ["eval-0001", "eval-0002"]) if ids else st.just("eval-0001"), max_size=3)
    calls = draw(
        st.lists(
            st.tuples(st.sampled_from(all_configs()), st.integers(0, 2**64 - 1), exclude), min_size=1, max_size=8
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
        for config, seed, exclude_ids in calls:
            expected = _outcome(helpers.select_demonstrations_reference, pool, config, seed, exclude_ids)
            assert _outcome(select_demonstrations, prepared, config, seed, exclude_ids) == expected

    def test_each_demo_rendered_once(self, demo_pool, monkeypatch):
        traced = []
        monkeypatch.setattr(promptkit, "_trace_for", lambda instance, modality: traced.append(instance) or "trace")
        prepared = DemoPool(demo_pool)
        config = PromptConfig(Strategy.COT, Modality.GRAPH)
        first = select_demonstrations(prepared, config, seed=5)
        again = select_demonstrations(prepared, config, seed=5, exclude_ids={"eval-0001"})
        assert again == first
        assert all(a is b for a, b in zip(first, again))
        assert len(traced) == DEFAULT_DEMO_COUNT


class TestLengthOrdering:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_strategy_ordering_per_instance_sample(self, seed):
        split = helpers.synthetic_split(6, seed=seed)
        pool = list(helpers.synthetic_split(8, seed=seed + 1, id_prefix="pool").instances)
        for modality in Modality:
            means = {}
            for strategy in Strategy:
                config = PromptConfig(strategy, modality)
                counts = [_build(i, config, pool).token_count for i in split.instances]
                means[strategy] = sum(counts) / len(counts)
            assert means[Strategy.ZERO] < means[Strategy.FEW] < means[Strategy.COT]
