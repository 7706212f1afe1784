"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Scope note for criterion 10: the published per-model accuracy tables for
this task are not reproducible at desk scale; they required proprietary
and large hosted models. In their place a recorded replay fixture must
score to a pre-committed table exactly, proving the harness end to end.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import helpers
from eventqa import manifest
from eventqa.backends import (
    BackendKind,
    BackendSpec,
    complete,
    prompt_fingerprint,
    run_batch,
)
from eventqa.cli import main as cli_main
from eventqa.corpus import Answer, QuestionCategory
from eventqa.costmodel import estimate_cost
from eventqa.extract import ExtractedLabel, ExtractionMethod, extract_answer
from eventqa.graphcore import blocks, causes, graph_from_sentences, occurred, verbalize_graph
from eventqa.promptkit import DemoPool, assemble_prompt, select_demonstrations
from eventqa.vocab import PROMPT_ROW, Modality, PromptConfig, Strategy, all_configs
from test_costmodel import (
    GPT35_FEW,
    GPT35_ZERO,
    GPT4O_COT,
    back_solve_gpt35,
    solved_pricing,  # noqa: F401  (registers the fixture in this module)
)
from test_graphcore import (
    assert_valid_topology,
    closure_reachable,
    occurred_reference,
)

DATA = Path(__file__).parent / "data"
DATASET = str(DATA / "sample_dataset.ndjson")
POOL = str(DATA / "demo_pool.ndjson")


def _report(criterion: int, name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE PASS [{criterion:2d}] {name} ({elapsed:.2f}s)")


EXPECTED_GRAPH_COT_PROMPT = (
    "### Instruction ###\n"
    'You are provided with a causal graph and examples showing how to answer. '
    'Use only the graph and answer "yes" or "no" only.\n'
    "\n"
    "### Graph ###\n"
    'The event "riot police deployed" blocks the event "protest rally".\n'
    'The event "political opposition" enables the event "political opposition called rally".\n'
    'The event "political opposition called rally" enables the event "protest rally".\n'
    'The event "music" enables the event "draws many people to festival".\n'
    'The event "dancing" enables the event "draws many people to festival".\n'
    'The event "speeches" enables the event "draws many people to festival".\n'
    "\n"
    "### Examples ###\n"
    'Question: Did "protest rally" happen after "riot police deployed"?\n'
    "Answer: no\n"
    'Question: Did "music" cause "draws many people"?\n'
    "Answer: yes\n"
    "\n"
    "### Question ###\n"
    'Did "gathered" happen while the organizers made a statement?\n'
    "### Answer ###\n"
)

# Same graph and examples as above, with the passage inserted and the
# integrate-both instruction swapped in.
_GRAPH_TAIL = "### Graph ###" + EXPECTED_GRAPH_COT_PROMPT.split("### Graph ###", 1)[1]
EXPECTED_TAG_COT_PROMPT = (
    "### Instruction ###\n"
    'You are provided with text, a causal graph, and examples showing how to answer. '
    'Integrate both and answer "yes" or "no" only.\n'
    "\n"
    "### Text ###\n" + helpers.RALLY_PASSAGE + "\n\n" + _GRAPH_TAIL
)


def test_criterion_01_template_fidelity(rally_instance, worked_demos):
    started = time.monotonic()
    graph = verbalize_graph(rally_instance.graph)

    graph_cot = PromptConfig(Strategy.COT, Modality.GRAPH)
    record = assemble_prompt(rally_instance, graph_cot, worked_demos, graph)
    assert record.prompt_text == EXPECTED_GRAPH_COT_PROMPT

    tag_cot = PromptConfig(Strategy.COT, Modality.TAG)
    tag_record = assemble_prompt(rally_instance, tag_cot, worked_demos, graph)
    assert tag_record.prompt_text == EXPECTED_TAG_COT_PROMPT

    # Structure: the text section slots in after the instruction, all other
    # sections byte-identical to the graph-only prompt.
    sections = helpers.prompt_sections(record.prompt_text)
    tag_sections = helpers.prompt_sections(tag_record.prompt_text)
    assert list(tag_sections) == ["Instruction", "Text", "Graph", "Examples", "Question", "Answer"]
    for section in ("Graph", "Examples", "Question"):
        assert sections[section] == tag_sections[section]
    assert helpers.RALLY_PASSAGE in tag_sections["Text"]

    _report(1, "template fidelity (graph+cot byte-exact, tag+cot structure)", started, 1.0)


def test_criterion_02_component_matrix(rally_instance):
    started = time.monotonic()
    matrix = {
        ("zero", "text"): (True, False, False),
        ("zero", "graph"): (False, True, False),
        ("zero", "tag"): (True, True, False),
        ("few", "text"): (True, False, True),
        ("few", "graph"): (False, True, True),
        ("few", "tag"): (True, True, True),
        ("cot", "text"): (True, False, True),
        ("cot", "graph"): (False, True, True),
        ("cot", "tag"): (True, True, True),
    }
    pool = DemoPool(helpers.synthetic_split(8, seed=23, id_prefix="pool"))
    graph = verbalize_graph(rally_instance.graph)
    checks = 0
    for config in all_configs():
        demos = select_demonstrations(pool, config, seed=1)
        sections = helpers.prompt_sections(assemble_prompt(rally_instance, config, demos, graph).prompt_text)
        has = ("Text" in sections, "Graph" in sections, "Examples" in sections)
        assert has == matrix[(config.strategy.value, config.modality.value)], config.selector
        assert "Instruction" in sections and "Question" in sections
        checks += 1
    assert checks == 9
    _report(2, "component matrix holds for all 9 configurations", started, 1.0)


# (text, expected label, expected method) -- 50 cases.
C = ExtractionMethod.CANONICAL_REGEX
F = ExtractionMethod.FALLBACK_FIRST_TOKEN
N = ExtractionMethod.NONE
YES, NO, UNP = ExtractedLabel.YES, ExtractedLabel.NO, ExtractedLabel.UNPARSEABLE

EXTRACTION_SUITE = [
    ("Therefore, the final answer is: yes", YES, C),
    ("Therefore, the final answer is: no", NO, C),
    ("therefore, the answer is: yes", YES, C),
    ("Step 1: a enables b. Step 2: b enables c. Therefore, the final answer is: no", NO, C),
    ("Reasoning chain. Therefore, my answer is: yes", YES, C),
    ("Therefore, after weighing the graph, the answer is: no", NO, C),
    ("Therefore, the final answer is: YES", YES, C),
    ("Therefore, the final answer is: No", NO, C),
    ("Therefore, the answer is: yes. Oh wait. Therefore, the answer is: no", NO, C),
    ("Therefore, the answer is: no. On reflection. Therefore, the answer is: yes", YES, C),
    ("No. Therefore, the answer is: yes", YES, C),
    ("Therefore,\nfollowing the chain of blocks,\nthe answer is: no", NO, C),
    ("The chain runs a to b to c, nothing blocks it. " * 5 + "Therefore, the final answer is: yes", YES, C),
    ("I think it holds. Therefore, I conclude the answer is: no", NO, C),
    ("Therefore, the final answer is: yes.", YES, C),
    ("THEREFORE, the answer is: yes", YES, F),
    ("Therefore the answer is: yes", YES, F),
    ("Therefore, the answer is:yes", YES, F),
    ("Therefore, the answer is: maybe. The answer is: no", NO, C),
    ("Therefore, the final answer is: nothing", UNP, N),  # a canonical label ends at a word boundary
    ("yes", YES, F),
    ("no", NO, F),
    ("Yes.", YES, F),
    ("No, the events are unrelated, so I answer no.", NO, F),
    ("I believe yes is correct", YES, F),
    ("The answer would be no", NO, F),
    ("YES!", YES, F),
    ("no way this happened", NO, F),
    ("Answer: yes", YES, F),
    ("it is a yes", YES, F),
    ("Not sure, but I'd say no", NO, F),
    ("yes and no", YES, F),
    ("no, no, yes", NO, F),
    ("The event definitely happened, yes", YES, F),
    ("I answer NO", NO, F),
    ("", UNP, N),
    ("yesterday", UNP, N),
    ("nothing happened", UNP, N),
    ("yesterday nothing happened", UNP, N),
    ("The outcome is unknown.", UNP, N),
    ("Notably, the eyes have it", UNP, N),
    ("I cannot determine the outcome", UNP, N),
    ("annoying, yesman says maybe", UNP, N),
    ("unknown", UNP, N),
    ("The jury is out", UNP, N),
    ("yes. Therefore, the answer is: no", NO, C),
    ("Therefore, nothing follows. The answer is: unclear. no", NO, F),
    ("Therefore, the answer is yes", YES, F),
    ("Because a enables b. Therefore, the answer is: yes\nTherefore, the answer is: no", NO, C),
    ("\tno ", NO, F),
]


def test_criterion_03_extraction_conformance():
    started = time.monotonic()
    assert len(EXTRACTION_SUITE) == 50
    passed = 0
    for text, label, method in EXTRACTION_SUITE:
        result = extract_answer(text)
        assert result.answer is label, (text, result)
        assert result.method is method, (text, result)
        passed += 1
    assert passed == 50
    _report(3, "extraction suite 50/50 (canonical, fallback, near-misses)", started, 1.0)


def test_criterion_04_oracle_ground_truth(rally_instance, worked_demos):
    started = time.monotonic()
    spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE)
    graph = verbalize_graph(rally_instance.graph)
    expected = {worked_demos[0].question: "no", worked_demos[1].question: "yes"}
    for question, answer in expected.items():
        instance = rally_instance._replace(question=question)
        record = assemble_prompt(instance, PromptConfig(Strategy.ZERO, Modality.GRAPH), [], graph)
        response = complete(spec, record.prompt_text, record.token_count, 8)
        assert response.raw_text == answer

    rng = Random(2024)
    graphs_checked = 0
    for _ in range(1000):
        graph = helpers.random_graph(rng, max_nodes=8)
        occurred_ids = occurred_reference(graph)
        for a in graph.nodes:
            assert occurred(graph, a.id) == (a.id in occurred_ids)
            for b in graph.nodes:
                assert causes(graph, a.id, b.id) == closure_reachable(graph, a.id, b.id)
                brute_blocks = any(
                    e.relation.value == "blocks" and e.source == a.id and e.target == b.id for e in graph.edges
                )
                assert blocks(graph, a.id, b.id) == brute_blocks
        graphs_checked += 1
    assert graphs_checked == 1000
    _report(4, "oracle matches brute force on 1000 random graphs and both demo answers", started, 10.0)


def test_criterion_05_verbalization_round_trip():
    started = time.monotonic()
    rng = Random(777)
    acyclic_checked = 0
    for _ in range(1000):
        graph = helpers.random_graph(rng, max_nodes=8, acyclic=True)
        sentences = verbalize_graph(graph)
        rebuilt = graph_from_sentences(list(sentences))
        labels = graph.node_table()
        expected = Counter((labels[e.source].label, e.relation, labels[e.target].label) for e in graph.edges)
        assert Counter((e.source, e.relation, e.target) for e in rebuilt.edges) == expected
        order, set_aside = helpers.verbalized_order_reference(graph)
        assert set_aside == ()
        assert_valid_topology(graph, helpers.order_reference(graph), [])
        assert sentences == helpers.render_edges(graph, order)
        acyclic_checked += 1
    assert acyclic_checked == 1000

    cyclic_checked = 0
    while cyclic_checked < 200:
        graph = helpers.random_graph(rng, max_nodes=6, max_edges=10)
        order, set_aside = helpers.verbalized_order_reference(graph)
        assert verbalize_graph(graph) == helpers.render_edges(graph, order)
        if set_aside:
            cyclic_checked += 1
    _report(5, "round-trip on 1000 acyclic graphs; feedback counts match on 200 cyclic", started, 10.0)


def test_criterion_06_token_length_ordering(synthetic_split):
    started = time.monotonic()
    assert len(synthetic_split) >= 100
    pool = DemoPool(helpers.synthetic_split(10, seed=8, id_prefix="pool"))
    means: dict[tuple[Strategy, Modality], float] = {}
    for config in all_configs():
        counts = []
        for instance in synthetic_split:
            demos = select_demonstrations(pool, config, seed=4)
            graph = verbalize_graph(instance.graph) if config.includes_graph else None
            counts.append(assemble_prompt(instance, config, demos, graph).token_count)
        means[(config.strategy, config.modality)] = sum(counts) / len(counts)

    for modality in Modality:
        assert means[(Strategy.ZERO, modality)] < means[(Strategy.FEW, modality)] < means[(Strategy.COT, modality)]
    for strategy in Strategy:
        assert means[(strategy, Modality.TEXT)] < means[(strategy, Modality.TAG)]
        assert means[(strategy, Modality.GRAPH)] < means[(strategy, Modality.TAG)]
    _report(6, "mean lengths ordered zero<few<cot and text,graph<tag on 130 instances", started, 5.0)


def test_criterion_07_cost_reproduction(solved_pricing):
    started = time.monotonic()
    back_solve_gpt35()  # oracle self-check runs first
    for tokens_in, tokens_out, expected in (GPT35_ZERO, GPT35_FEW):
        estimate = estimate_cost(tokens_in, tokens_out, "gpt-3.5-turbo", solved_pricing)
        assert abs(estimate.total_cost - expected) <= Decimal("0.05")
    projection = estimate_cost(1000 * 21_100, 1000 * 212_000, "gpt-4o", solved_pricing)
    assert abs(projection.total_cost - GPT4O_COT[2]) <= Decimal("1.00")
    _report(7, "published cost rows reproduced from back-solved prices", started, 1.0)


def test_criterion_08_sampler_quotas():
    started = time.monotonic()
    rng = Random(31)
    instances = []
    index = 0
    for cat_index, category in enumerate(QuestionCategory):
        for _ in range(60 + 37 * cat_index):
            instances.append(helpers.synthetic_instance(index, rng)._replace(category=category))
            index += 1
    ids = [f"pop-{i:05d}" for i in range(len(instances))]
    instances = [inst._replace(instance_id=new_id) for inst, new_id in zip(instances, ids)]
    population = tuple(instances)
    assert len(population) == 3666

    sample = helpers.stratified_sample(population, 1024, seed=42)
    again = helpers.stratified_sample(population, 1024, seed=42)
    assert sample == again
    assert len(sample) == 1024

    counts = Counter(i.category for i in sample)
    pop_counts = Counter(i.category for i in population)
    for category in QuestionCategory:
        quota = Fraction(1024 * pop_counts[category], len(population))
        assert abs(Fraction(counts[category]) - quota) <= 1, category
    _report(8, "1024-sample quotas within +/-1 of proportional, deterministic", started, 5.0)


def _run_pipeline(out: Path, *, backend_args: tuple = ("--backend", "oracle")) -> None:
    assert cli_main(["build", "--dataset", DATASET, "--demo-pool", POOL, "--out", str(out), "--seed", "7"]) == 0
    assert cli_main(["run", "--out", str(out), *[str(a) for a in backend_args]]) == 0
    assert cli_main(["score", "--out", str(out), "--dataset", DATASET]) == 0
    assert cli_main(["report", "--out", str(out)]) == 0
    assert cli_main(["cost", "--out", str(out), "--model", "gpt-3.5-turbo"]) == 0


ARTIFACTS = (
    "prompts.ndjson",
    "rejections.ndjson",
    "responses.ndjson",
    "predictions.ndjson",
    "report.json",
    "report.csv",
    "plot_by_strategy.csv",
    "plot_by_modality.csv",
    "cost.json",
)


def test_criterion_09_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    first, second = tmp_path / "first", tmp_path / "second"
    _run_pipeline(first)
    _run_pipeline(second)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # Shuffled submission order: resubmitting the same batch in a scrambled
    # order must not change the manifest bytes.
    header, _ = manifest.read_ndjson(first / "responses.ndjson")
    _, prompt_rows = manifest.read_ndjson(first / "prompts.ndjson")
    prompts = list(prompt_rows)
    Random(5).shuffle(prompts)
    spec = BackendSpec(name="oracle", kind=BackendKind.ORACLE, max_concurrency=5)
    scrambled_path = tmp_path / "scrambled.ndjson"
    run_batch(spec, prompts, scrambled_path, header)
    assert scrambled_path.read_bytes() == (first / "responses.ndjson").read_bytes()

    # Resume: truncate the manifest, strip the already-completed prompts out
    # of the mock fixtures, and rerun. Success proves completed records are
    # never re-requested; the final file must match the uninterrupted run.
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    shutil.copy(first / "prompts.ndjson", mock_dir / "prompts.ndjson")
    fixtures = {prompt_fingerprint(p["prompt_text"]): "Therefore, the final answer is: yes" for p in prompts}
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(json.dumps(fixtures))
    mock_args = ("--backend", "mock", "--fixtures", str(fixtures_path))
    assert cli_main(["run", "--out", str(mock_dir), *mock_args]) == 0
    full_bytes = (mock_dir / "responses.ndjson").read_bytes()

    lines = (mock_dir / "responses.ndjson").read_text().splitlines()
    keep = 5
    (mock_dir / "responses.ndjson").write_text("\n".join(lines[: keep + 1]) + "\n")
    completed = [json.loads(line) for line in lines[1 : keep + 1]]
    completed_keys = {(row["instance_id"], row["config"]) for row in completed}
    remaining_fixtures = {
        prompt_fingerprint(p["prompt_text"]): "Therefore, the final answer is: yes"
        for p in prompts
        if (p["instance_id"], PROMPT_ROW.read(p).config.selector) not in completed_keys
    }
    fixtures_path.write_text(json.dumps(remaining_fixtures))
    assert cli_main(["run", "--out", str(mock_dir), *mock_args]) == 0
    assert (mock_dir / "responses.ndjson").read_bytes() == full_bytes
    _report(9, "pipeline byte-identical across runs, shuffle-proof, resume-safe", started, 30.0)


# Replay rule for criterion 10, by category of the instance:
# indices 0-8 answer correctly, 9-11 answer wrongly, 12 is garbage.
CORRECT_CATEGORIES = tuple(list(QuestionCategory)[:9])
WRONG_CATEGORIES = tuple(list(QuestionCategory)[9:12])
GARBAGE_CATEGORY = list(QuestionCategory)[12]
PRECOMMITTED_ACCURACY = 18 / 26
PRECOMMITTED_UNPARSEABLE = 2 / 26


def test_criterion_10_replay_fixture_scores_to_precommitted_table(tmp_path):
    started = time.monotonic()
    # 26 instances, two per category; categories cycle through the taxonomy.
    instances = [helpers.synthetic_instance(i, Random(900 + i)) for i in range(26)]
    instances = [inst._replace(instance_id=f"replay-{i:03d}") for i, inst in enumerate(instances)]
    dataset_path = tmp_path / "replay_dataset.ndjson"
    helpers.write_dataset(dataset_path, instances)
    pool_path = tmp_path / "replay_pool.ndjson"
    helpers.write_dataset(pool_path, helpers.synthetic_split(8, seed=9001, id_prefix="rpool"))

    out = tmp_path / "out"
    assert cli_main(
        ["build", "--dataset", str(dataset_path), "--demo-pool", str(pool_path), "--out", str(out), "--seed", "3"]
    ) == 0
    _, prompt_rows = manifest.read_ndjson(out / "prompts.ndjson")
    assert len(list(prompt_rows)) == 26 * 9

    by_id = {inst.instance_id: inst for inst in instances}
    fixtures = {}
    for row in prompt_rows:
        instance = by_id[row["instance_id"]]
        flipped = Answer.YES if instance.gold_answer is Answer.NO else Answer.NO
        if instance.category in CORRECT_CATEGORIES:
            reply = f"Following the graph. Therefore, the final answer is: {instance.gold_answer.value}"
        elif instance.category in WRONG_CATEGORIES:
            reply = f"Following the graph. Therefore, the final answer is: {flipped.value}"
        else:
            reply = "The outcome is entangled."
        fixtures[prompt_fingerprint(row["prompt_text"])] = reply
    fixtures_path = tmp_path / "replay_fixtures.json"
    fixtures_path.write_text(json.dumps(fixtures))

    assert cli_main(["run", "--out", str(out), "--backend", "mock", "--fixtures", str(fixtures_path)]) == 0
    assert cli_main(["score", "--out", str(out), "--dataset", str(dataset_path)]) == 0
    assert cli_main(["report", "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text())
    assert len(report["cells"]) == 9
    assert len(report["cluster_cells"]) == 9 * 13
    for cell in report["cells"]:
        assert cell["n"] == 26
        assert cell["accuracy"] == PRECOMMITTED_ACCURACY
        assert cell["unparseable_rate"] == PRECOMMITTED_UNPARSEABLE
    for cell in report["cluster_cells"]:
        assert cell["n"] == 2
        category = QuestionCategory(cell["category"])
        if category in CORRECT_CATEGORIES:
            assert cell["accuracy"] == 1.0 and cell["unparseable_rate"] == 0.0
        elif category in WRONG_CATEGORIES:
            assert cell["accuracy"] == 0.0 and cell["unparseable_rate"] == 0.0
        else:
            assert cell["accuracy"] == 0.0 and cell["unparseable_rate"] == 1.0
    _report(10, "replay fixture scores exactly to the pre-committed 9x13 table", started, 30.0)
