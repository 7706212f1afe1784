from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from eventqa.corpus import (
    Answer,
    DatasetFormatError,
    DatasetSplit,
    EmptySplitError,
    QuestionCategory,
    SamplingError,
    answer_distribution,
    load_dataset,
    load_schema,
    stratified_sample,
)


def _write(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _record(instance_id="a", **overrides):
    base = helpers.instance_to_record(helpers.synthetic_instance(0, random.Random(3)))
    base["instance_id"] = instance_id
    base.update(overrides)
    return base


class TestLoadDataset:
    def test_well_formed_records_all_load(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("a"), _record("b"), _record("c")])
        result = load_dataset(path)
        assert [i.instance_id for i in result.split.instances] == ["a", "b", "c"]
        assert result.rejections == ()

    def test_dangling_edge_endpoint_rejects_instance(self, tmp_path):
        bad = _record("bad")
        bad["graphs"][0]["edges"].append({"source": "e0", "target": "ghost", "relation": "enables"})
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), bad])
        result = load_dataset(path)
        assert [i.instance_id for i in result.split.instances] == ["ok"]
        assert len(result.rejections) == 1
        assert result.rejections[0].instance_id == "bad"
        assert "dangling edge endpoint" in result.rejections[0].reason

    def test_strict_mode_aborts_on_first_bad_record(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), _record("bad", answer="maybe")])
        with pytest.raises(DatasetFormatError):
            load_dataset(path, strict=True)

    def test_unparseable_line_skipped_and_logged(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text(json.dumps(_record("ok")) + "\n" + "{not json\n", encoding="utf-8")
        result = load_dataset(path)
        assert len(result.split.instances) == 1
        assert len(result.rejections) == 1

    def test_duplicate_instance_id_rejected(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("dup"), _record("dup")])
        result = load_dataset(path)
        assert len(result.split.instances) == 1
        assert "duplicate" in result.rejections[0].reason

    def test_missing_category_maps_to_unknown(self, tmp_path):
        record = _record("a")
        del record["category"]
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        result = load_dataset(path)
        assert result.split.instances[0].category is QuestionCategory.UNKNOWN

    def test_unrecognized_category_rejected(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("a", category="rhetorical")])
        result = load_dataset(path)
        assert not result.split.instances
        assert "category" in result.rejections[0].reason

    def test_label_with_quote_rejected(self, tmp_path):
        record = _record("a")
        record["graphs"][0]["nodes"][0]["label"] = 'said "stop"'
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        result = load_dataset(path)
        assert not result.split.instances

    def test_schema_descriptor_renames_fields(self, tmp_path):
        record = _record("a")
        renamed = {
            "id": record["instance_id"],
            "text": record["passage"],
            "q": record["question"],
            "label": record["answer"],
            "category": record["category"],
            "graphs": record["graphs"],
        }
        data_path = tmp_path / "data.ndjson"
        _write(data_path, [renamed])
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps({"instance_id": "id", "passage": "text", "question": "q", "answer": "label"}),
            encoding="utf-8",
        )
        result = load_dataset(data_path, load_schema(schema_path))
        assert result.split.instances[0].instance_id == "a"
        assert result.split.instances[0].passage == record["passage"]

    def test_schema_graph_selection_prefers_requested_kind(self, tmp_path):
        from eventqa.corpus import GraphKind

        record = _record("a")
        schema_graph = dict(record["graphs"][0])
        schema_graph["kind"] = "schema"
        schema_graph["graph_id"] = "the-schema"
        record["graphs"] = [record["graphs"][0], schema_graph]
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        by_default = load_dataset(path).split.instances[0]
        by_schema = load_dataset(path, graph_kind=GraphKind.SCHEMA).split.instances[0]
        assert by_default.graph.kind is GraphKind.INSTANCE
        assert by_schema.graph.graph_id == "the-schema"


class TestCategoryTaxonomy:
    # The expanded taxonomy and its back-mapping to the original clusters.
    EXPECTED = {
        "causal": "causal",
        "counterfactual": "causal (extended)",
        "event": "event",
        "existential": "event (subtype)",
        "future": "future",
        "negative": "event (negative polarity)",
        "occurrence": "event / temporal",
        "past": "past",
        "positive": "event (positive polarity)",
        "possible": "possible",
        "present": "present",
        "temporal_conflict": "temporal_conflict",
        "unknown": "unknown",
    }

    def test_thirteen_categories(self):
        assert len(QuestionCategory) == 13

    def test_original_cluster_mapping(self):
        assert {c.value: c.original_cluster for c in QuestionCategory} == self.EXPECTED


class TestAnswerDistribution:
    def test_direct_count(self):
        split = helpers.synthetic_split(4, seed=1)
        answers = [Answer.YES, Answer.NO, Answer.NO, Answer.NO]
        instances = tuple(replace(i, gold_answer=a) for i, a in zip(split.instances, answers))
        dist = answer_distribution(DatasetSplit("t", instances))
        assert dist.yes_fraction == 0.25
        assert dist.no_fraction == 0.75

    def test_degenerate_single_yes(self):
        split = helpers.synthetic_split(1, seed=2)
        instances = (replace(split.instances[0], gold_answer=Answer.YES),)
        dist = answer_distribution(DatasetSplit("t", instances))
        assert (dist.yes_fraction, dist.no_fraction) == (1.0, 0.0)

    def test_empty_split_is_an_error(self):
        with pytest.raises(EmptySplitError):
            answer_distribution(DatasetSplit("t", ()))

    @given(yes=st.integers(0, 40), no=st.integers(0, 40))
    def test_fractions_sum_to_one(self, yes, no):
        if yes + no == 0:
            return
        rng = random.Random(0)
        instances = [
            replace(helpers.synthetic_instance(index, rng), gold_answer=answer)
            for index, answer in enumerate([Answer.YES] * yes + [Answer.NO] * no)
        ]
        dist = answer_distribution(DatasetSplit("t", tuple(instances)))
        assert abs(dist.yes_fraction + dist.no_fraction - 1.0) <= 2 ** -52


class TestStratifiedSample:
    def test_two_equal_categories_split_evenly(self):
        rng = random.Random(5)
        instances = [
            replace(
                helpers.synthetic_instance(index, rng),
                category=QuestionCategory.CAUSAL if index < 50 else QuestionCategory.PAST,
            )
            for index in range(100)
        ]
        sample = stratified_sample(DatasetSplit("t", tuple(instances)), 10, seed=7)
        counts = Counter(i.category for i in sample.instances)
        assert counts[QuestionCategory.CAUSAL] == 5
        assert counts[QuestionCategory.PAST] == 5

    def test_size_equal_to_population_returns_whole_split_in_order(self, synthetic_split):
        sample = stratified_sample(synthetic_split, len(synthetic_split.instances), seed=3)
        assert sample.instances == synthetic_split.instances

    def test_deterministic_for_fixed_seed(self, synthetic_split):
        first = stratified_sample(synthetic_split, 40, seed=11)
        second = stratified_sample(synthetic_split, 40, seed=11)
        assert first == second
        different = stratified_sample(synthetic_split, 40, seed=12)
        assert first != different  # overwhelmingly likely for this population

    def test_oversized_request_fails(self, synthetic_split):
        with pytest.raises(SamplingError):
            stratified_sample(synthetic_split, len(synthetic_split.instances) + 1, seed=1)

    def test_empty_expected_stratum_warns(self, synthetic_split, caplog):
        with caplog.at_level("WARNING"):
            stratified_sample(synthetic_split, 10, seed=1, expected_strata=[("missing", "stratum")])
        assert any("empty" in message for message in caplog.messages)

    @settings(max_examples=40)
    @given(size=st.integers(1, 130), seed=st.integers(0, 10))
    def test_quotas_within_one_of_proportional(self, size, seed):
        split = helpers.synthetic_split(130, seed=7)
        sample = stratified_sample(split, size, seed=seed)
        assert len(sample.instances) == size
        population = Counter(i.category for i in split.instances)
        counts = Counter(i.category for i in sample.instances)
        for category, members in population.items():
            exact = Fraction(size * members, len(split.instances))
            assert abs(Fraction(counts[category]) - exact) <= 1

    def test_sample_ids_are_a_subset_in_stable_order(self, synthetic_split):
        sample = stratified_sample(synthetic_split, 25, seed=2)
        positions = [synthetic_split.instances.index(i) for i in sample.instances]
        assert positions == sorted(positions)
