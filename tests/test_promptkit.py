from __future__ import annotations

import json
import time
from importlib import resources
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa import promptkit
from eventqa.corpus import Answer
from eventqa.graphcore import verbalize_graph
from eventqa.promptkit import (
    SECTION_ANSWER,
    SECTION_EXAMPLES,
    SECTION_GRAPH,
    SECTION_INSTRUCTION,
    SECTION_QUESTION,
    SECTION_TEXT,
    BudgetError,
    Demonstration,
    DemoPool,
    InsufficientPoolError,
    PromptAssemblyError,
    PromptRecord,
    assemble_prompt,
    canonical_answer_sentence,
    count_tokens,
    select_demonstrations,
    split_sentences,
)
from eventqa.vocab import (
    DEFAULT_DEMO_COUNT,
    PROMPT_ROW,
    Modality,
    PromptConfig,
    PromptError,
    Strategy,
    all_configs,
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
    demos = select_demonstrations(pool or DemoPool(), config, seed=seed, exclude_ids={instance.instance_id})
    verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
    return assemble_prompt(instance, config, demos, verbalized, budget=budget)


def _section(record, name):
    """The text of section ``name`` of a record's prompt, sliced by its byte span."""
    start, end = record.sections[name]
    return record.prompt_text.encode("utf-8")[start:end].decode("utf-8")


@pytest.fixture
def demo_pool():
    return DemoPool(helpers.synthetic_split(12, seed=41, id_prefix="pool").instances)


class TestPromptConfig:
    def test_nine_configs(self):
        assert len(all_configs()) == 9
        assert len({c.selector for c in all_configs()}) == 9

    def test_selector_round_trip(self):
        for config in all_configs():
            assert parse_selector(config.selector) == config

    def test_graphs_alias(self):
        assert parse_selector("few-graphs").modality is Modality.GRAPH

    def test_positional_demo_count_is_checked(self):
        with pytest.raises(ValueError, match="exactly for the zero-shot strategy"):
            PromptConfig(Strategy.ZERO, Modality.TEXT, 3)

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
        with pytest.raises(TypeError):  # derived from the strategy, not settable
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
        row = json.loads(json.dumps(record.to_dict()))
        assert row["prompt_text"] == record.prompt_text
        assert row["token_count"] == record.token_count
        assert PROMPT_ROW.read(row).config == record.config
        assert {name: tuple(span) for name, span in row["sections"].items()} == record.sections
        assert row["tokenizer"] == promptkit.TOKENIZER == "simple"
        assert list(row) == [*PromptRecord._fields, "tokenizer"]  # the record holds exactly what it writes


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
        assert _section(truncated, SECTION_GRAPH) == _section(record, SECTION_GRAPH)

    def test_graph_only_prompt_trims_graph_keeps_question(self, rally_instance):
        config = PromptConfig(Strategy.ZERO, Modality.GRAPH)
        record = _build(rally_instance, config)
        truncated = _build(rally_instance, config, budget=record.token_count - 1)
        assert SECTION_QUESTION in truncated.sections
        assert rally_instance.question in truncated.prompt_text
        assert truncated.token_count <= record.token_count - 1

    def test_passage_exhausted_before_graph_touched(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        graph = _section(record, SECTION_GRAPH)
        truncated = _build(rally_instance, config, demo_pool, budget=max(count_tokens(graph) + 40, 60))
        # The graph only shrinks once the passage and demos are gone.
        assert _section(truncated, SECTION_GRAPH) != graph
        assert SECTION_TEXT not in truncated.sections
        assert SECTION_EXAMPLES not in truncated.sections

    def test_truncation_never_raises_count(self, rally_instance, demo_pool):
        config = PromptConfig(Strategy.COT, Modality.TAG)
        record = _build(rally_instance, config, demo_pool)
        _, reference_template = _TEMPLATES[0]
        demos = select_demonstrations(demo_pool, config, seed=0, exclude_ids={rally_instance.instance_id})
        parts = helpers.prompt_parts_reference(
            rally_instance, config, demos, verbalize_graph(rally_instance.graph), template=reference_template
        )
        skeleton = parts._replace(passage_sentences=None, graph_sentences=None, demos=())
        floor = count_tokens(helpers.render_reference(skeleton, reference_template)[0])
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

    def test_exclusion_removes_eval_instance(self, demo_pool):
        config = PromptConfig(Strategy.FEW, Modality.TEXT)
        excluded = demo_pool[0].instance_id
        for seed in range(6):
            demos = select_demonstrations(demo_pool, config, seed=seed, exclude_ids={excluded})
            assert demo_pool[0].question not in [d.question for d in demos]

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
    instances = helpers.synthetic_split(size, seed=draw(st.integers(0, 1000)), id_prefix="pool").instances
    pool = [
        instance._replace(gold_answer=label, graph=instance.graph if graph else None)
        for instance, label, graph in zip(instances, labels, with_graph)
    ]
    ids = [instance.instance_id for instance in pool]
    demo_counts = st.builds(
        PromptConfig, st.sampled_from([Strategy.FEW, Strategy.COT]), st.sampled_from(Modality), st.integers(1, 12)
    )
    exclude = st.sets(st.sampled_from(ids + ["eval-0001", "eval-0002"]) if ids else st.just("eval-0001"), max_size=3)
    calls = draw(
        st.lists(
            st.tuples(st.one_of(st.sampled_from(all_configs()), demo_counts), st.integers(0, 2**64 - 1), exclude),
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
        pool = DemoPool(helpers.synthetic_split(8, seed=seed + 1, id_prefix="pool").instances)
        for modality in Modality:
            means = {}
            for strategy in Strategy:
                config = PromptConfig(strategy, modality)
                counts = [_build(i, config, pool).token_count for i in split.instances]
                means[strategy] = sum(counts) / len(counts)
            assert means[Strategy.ZERO] < means[Strategy.FEW] < means[Strategy.COT]


# A skeleton with placeholders glued to a word character and to punctuation,
# which is refused, and one whose placeholders touch only whitespace, which
# the composed counts are checked on besides the shipped one; it has two
# placeholders in one block, a repeated placeholder and literal braces.
GLUED_SKELETON = (
    "### Instruction ###\n{instruction}\n\n### Text ###\nPassage:{text}\n\n### Graph ###\n{graph}end\n\n"
    "### Examples ###\n{examples}\n\n### Question ###\n{question}\n### Answer ###\n"
)
BORDERED_SKELETON = (
    "Do this: {instruction}\n\nNote {braces} stay. {text} and {graph}\n\n{examples}\n\n"
    "Q: {question}\nAgain: {question}\n### Answer ###"
)
_SENTENCES = (
    "The council met at dawn.",
    "A storm closed the harbor!",
    "Did trains resume after the repair?",
    "Im Café « Zürich » sprach man über naïve Pläne — niemand widersprach.",
    "東京の会議は延期された。",
    "snake_case words and 42 numbers",
)


def _templates():
    """(template, reference template) pairs: the shipped skeleton, then ``BORDERED_SKELETON``."""
    shipped = (resources.files("eventqa") / "templates" / "skeleton.txt").read_text(encoding="utf-8")
    instructions = promptkit.default_template().instructions
    return [
        (promptkit.PromptTemplate(skeleton, instructions), helpers.ReferenceTemplate(skeleton, instructions))
        for skeleton in (shipped, BORDERED_SKELETON)
    ]


_TEMPLATES = _templates()


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
            source_modality=config.modality,
            reasoning_trace=draw(st.one_of(st.none(), sentence)) if config.include_reasoning_traces else None,
        )
        for _ in range(config.demo_count)
    ]
    template, reference_template = draw(st.sampled_from(_TEMPLATES))
    return instance, config, demos, template, reference_template


def _record_or_error(assemble, instance, config, demos, verbalized, budget, template):
    try:
        result = assemble(instance, config, demos, verbalized, budget=budget, template=template)
    except BudgetError as exc:
        return BudgetError, str(exc)
    return result.to_dict()


class TestComposedCounts:
    def test_glued_skeleton_is_refused(self):
        instructions = promptkit.default_template().instructions
        with pytest.raises(PromptError, match=r"placeholder \{text\} touches a non-space character"):
            promptkit.PromptTemplate(GLUED_SKELETON, instructions)
        for glued in ("x{question}\n### Answer ###", "{question}.\n### Answer ###", "{text}{graph}"):
            with pytest.raises(PromptError, match="touches a non-space character"):
                promptkit.PromptTemplate(glued, instructions)

    @settings(max_examples=400, deadline=None)
    @given(case=_prompt_case(), data=st.data())
    def test_records_match_reference(self, case, data):
        instance, config, demos, template, reference_template = case
        verbalized = verbalize_graph(instance.graph) if config.includes_graph else None
        expected = helpers.assemble_prompt_reference(instance, config, demos, verbalized, template=reference_template)
        record = assemble_prompt(instance, config, demos, verbalized, template=template)
        assert record.to_dict() == expected.to_dict()

        budget = data.draw(st.integers(0, expected.token_count + 2), label="budget")
        case = instance, config, demos, verbalized, budget
        assert _record_or_error(assemble_prompt, *case, template) == _record_or_error(
            helpers.assemble_prompt_reference, *case, reference_template
        )

    def test_empty_graph_keeps_its_header_and_misses_the_budget_like_reference(self, rally_instance):
        template, reference_template = _TEMPLATES[0]
        edgeless = rally_instance.graph._replace(edges=())
        config = PromptConfig(Strategy.ZERO, Modality.GRAPH)
        parts = helpers.prompt_parts_reference(
            rally_instance, config, (), verbalize_graph(edgeless), template=reference_template
        )
        assert parts.graph_sentences == ()
        skeleton = parts._replace(graph_sentences=None)
        budget = count_tokens(helpers.render_reference(skeleton, reference_template)[0])
        case = rally_instance, config, (), verbalize_graph(edgeless), budget
        outcome = _record_or_error(assemble_prompt, *case, template)
        assert outcome == (BudgetError, f"budget {budget} cannot be met")
        assert outcome == _record_or_error(helpers.assemble_prompt_reference, *case, reference_template)

    def test_simple_counts_are_composed_without_a_full_count(self, rally_instance, demo_pool, monkeypatch):
        counted = []
        original = promptkit._simple_count
        monkeypatch.setattr(promptkit, "_simple_count", lambda text: counted.append(text) or original(text))
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
