from __future__ import annotations

import csv
import json
from random import Random

import pytest

from eventqa.corpus import Answer, QuestionCategory
from eventqa.evalkit import (
    AccuracyReport,
    PredictionRecord,
    ScoringError,
    emit_report,
    format_accuracy_table,
    score,
)
from eventqa.extract import ExtractedAnswer, ExtractedLabel, ExtractionMethod
from eventqa.manifest import HEADER_KEY, csv_header_line
from eventqa.vocab import all_configs, parse_selector


def _extracted(label):
    if label is ExtractedLabel.UNPARSEABLE:
        return ExtractedAnswer(answer=label, method=ExtractionMethod.NONE)
    return ExtractedAnswer(answer=label, method=ExtractionMethod.FALLBACK_FIRST_TOKEN)


def make_prediction(instance_id, *, config="zero-text", backend="oracle", gold=Answer.NO,
                    predicted=ExtractedLabel.NO, category=QuestionCategory.CAUSAL):
    return PredictionRecord(
        instance_id=instance_id,
        config=parse_selector(config),
        backend=backend,
        extracted=_extracted(predicted),
        gold=gold,
        category=category,
    )


class TestScore:
    def test_three_of_four_correct(self):
        predictions = [
            make_prediction("a", predicted=ExtractedLabel.NO),
            make_prediction("b", predicted=ExtractedLabel.NO),
            make_prediction("c", predicted=ExtractedLabel.NO),
            make_prediction("d", predicted=ExtractedLabel.YES),
        ]
        report = score(predictions)
        cell = next(iter(report.cells.values()))
        assert cell.n == 4
        assert cell.accuracy == 0.75

    def test_unparseable_never_correct_and_counted(self):
        predictions = [
            make_prediction("a", gold=Answer.NO, predicted=ExtractedLabel.UNPARSEABLE),
            make_prediction("b", gold=Answer.NO, predicted=ExtractedLabel.NO),
        ]
        report = score(predictions)
        cell = next(iter(report.cells.values()))
        assert cell.accuracy == 0.5
        assert cell.unparseable_rate == 0.5

    def test_category_cells_partition_config_cells(self):
        rng = Random(4)
        predictions = [
            make_prediction(
                f"i{i:02d}",
                category=rng.choice(list(QuestionCategory)),
                predicted=rng.choice([ExtractedLabel.YES, ExtractedLabel.NO]),
            )
            for i in range(60)
        ]
        report = score(predictions)
        for key, cell in report.cells.items():
            cluster_n = sum(stats.n for cluster_key, stats in report.cluster_cells.items() if cluster_key[:3] == key)
            cluster_correct = sum(
                stats.correct for cluster_key, stats in report.cluster_cells.items() if cluster_key[:3] == key
            )
            assert cluster_n == cell.n
            assert cluster_correct == cell.correct

    def test_duplicate_prediction_rejected(self):
        predictions = [make_prediction("a"), make_prediction("a")]
        with pytest.raises(ScoringError, match="duplicate"):
            score(predictions)

    def test_duplicate_found_in_any_order(self):
        predictions = [make_prediction("a"), make_prediction("b"), make_prediction("a")]
        with pytest.raises(ScoringError, match="duplicate"):
            score(sorted(predictions, key=lambda p: p.identity))

    def test_collection_out_of_order_refused(self):
        with pytest.raises(ScoringError, match="out of"):
            score([make_prediction("b"), make_prediction("a")])

    def test_iterator_out_of_order_refused(self):
        with pytest.raises(ScoringError, match="out of"):
            score(iter([make_prediction("b"), make_prediction("a")]))

    @pytest.mark.parametrize(
        "predicted, gold, correct",
        [
            (ExtractedLabel.YES, Answer.YES, True),
            (ExtractedLabel.NO, Answer.NO, True),
            (ExtractedLabel.YES, Answer.NO, False),
            (ExtractedLabel.NO, Answer.YES, False),
            (ExtractedLabel.UNPARSEABLE, Answer.YES, False),
            (ExtractedLabel.UNPARSEABLE, Answer.NO, False),
        ],
    )
    def test_correct_only_when_the_label_is_the_gold_answer(self, predicted, gold, correct):
        prediction = make_prediction("a", predicted=predicted, gold=gold)
        assert prediction.correct is correct

    def test_permutation_invariance(self):
        rng = Random(11)
        predictions = [
            make_prediction(f"i{i}", config=rng.choice([c.selector for c in all_configs()]),
                            predicted=rng.choice(list(ExtractedLabel)))
            for i in range(40)
        ]
        report_a = score(sorted(predictions, key=lambda p: p.identity))
        shuffled = list(predictions)
        rng.shuffle(shuffled)
        report_b = score(sorted(shuffled, key=lambda p: p.identity))
        assert {k: (v.n, v.correct) for k, v in report_a.cells.items()} == {
            k: (v.n, v.correct) for k, v in report_b.cells.items()
        }

    def test_concatenation_accuracy_is_weighted_mean(self):
        part_a = [make_prediction(f"a{i}", predicted=ExtractedLabel.NO) for i in range(3)]
        part_b = [make_prediction(f"b{i}", predicted=ExtractedLabel.YES) for i in range(5)]
        cell_a = next(iter(score(part_a).cells.values()))
        cell_b = next(iter(score(part_b).cells.values()))
        combined = next(iter(score(part_a + part_b).cells.values()))
        expected = (cell_a.accuracy * cell_a.n + cell_b.accuracy * cell_b.n) / (cell_a.n + cell_b.n)
        assert combined.accuracy == pytest.approx(expected, abs=0)

    def test_scripted_seven_of_ten(self):
        # Mirrors a mock-backend run scripted to land on exactly 7/10.
        predictions = [
            make_prediction(f"i{i}", predicted=ExtractedLabel.NO if i < 7 else ExtractedLabel.YES)
            for i in range(10)
        ]
        cell = next(iter(score(predictions).cells.values()))
        assert cell.accuracy == 0.70

    def test_correct_count_recoverable_from_accuracy(self):
        rng = Random(2)
        predictions = [
            make_prediction(f"i{i:02d}", predicted=rng.choice([ExtractedLabel.YES, ExtractedLabel.NO]))
            for i in range(37)
        ]
        cell = next(iter(score(predictions).cells.values()))
        assert round(cell.accuracy * cell.n) == cell.correct


def full_grid_predictions():
    rng = Random(5)
    predictions = []
    index = 0
    for config in all_configs():
        for category in QuestionCategory:
            for _ in range(2):
                predictions.append(
                    make_prediction(
                        f"i{index:03d}",
                        config=config.selector,
                        category=category,
                        predicted=rng.choice([ExtractedLabel.YES, ExtractedLabel.NO]),
                    )
                )
                index += 1
    return predictions


HEADER = {"seed": 1, "stage": "report"}


def read_csv(path) -> list[dict]:
    """The rows of an emitted CSV, read past its ``# {header}`` line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == csv_header_line(HEADER)
    return list(csv.DictReader(lines[1:]))


class TestEmission:
    def test_csv_row_counts_for_full_grid(self, tmp_path):
        report = score(full_grid_predictions())
        emit_report(report, tmp_path, HEADER)
        rows = read_csv(tmp_path / "report.csv")
        config_rows = [r for r in rows if r["category"] == ""]
        cluster_rows = [r for r in rows if r["category"]]
        assert len(config_rows) == 9
        assert len(cluster_rows) == 9 * 13

    def test_single_cell_report(self, tmp_path):
        report = score([make_prediction("a")])
        assert emit_report(report, tmp_path, HEADER) == [
            tmp_path / name for name in ("report.json", "report.csv", "plot_by_strategy.csv", "plot_by_modality.csv")
        ]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[1] == "backend,strategy,modality,category,n,accuracy,unparseable_rate"
        assert len(lines) == 4  # provenance + column names + config row + one cluster row

    def test_reemission_is_byte_identical(self, tmp_path):
        report = score(full_grid_predictions())
        paths = emit_report(report, tmp_path, HEADER)
        first = {path: path.read_bytes() for path in paths}
        assert emit_report(report, tmp_path, HEADER) == paths
        assert {path: path.read_bytes() for path in paths} == first

    def test_json_mirrors_csv_content(self, tmp_path):
        report = score(full_grid_predictions())
        emit_report(report, tmp_path, HEADER)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload[HEADER_KEY] == HEADER
        assert len(payload["cells"]) == 9
        assert len(payload["cluster_cells"]) == 117
        rows = payload["cells"] + payload["cluster_cells"]
        assert [{key: str(value) for key, value in row.items()} for row in rows] == read_csv(tmp_path / "report.csv")

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ScoringError):
            emit_report(AccuracyReport(), tmp_path, HEADER)
        assert list(tmp_path.iterdir()) == []

    def test_plot_data_shape_13_by_3(self, tmp_path):
        # TAG cells only, grouped by strategy: 13 categories x 3 strategies.
        predictions = [p for p in full_grid_predictions() if p.config.modality.value == "tag"]
        report = score(predictions)
        paths = emit_report(report, tmp_path, HEADER)[2:]
        assert paths == [tmp_path / "plot_by_strategy.csv", tmp_path / "plot_by_modality.csv"]
        rows = read_csv(paths[0])
        assert len(rows) == 13 * 3
        assert sorted({row["category"] for row in rows}) == sorted(c.value for c in QuestionCategory)

    def test_plot_data_empty_category_has_zero_n_blank_accuracy(self, tmp_path):
        predictions = [
            make_prediction("a", config="cot-tag", category=QuestionCategory.CAUSAL),
        ]
        report = score(predictions)
        for path in emit_report(report, tmp_path, HEADER)[2:]:
            rows = read_csv(path)
            missing = [row for row in rows if row["category"] == "unknown"]
            assert missing and all(row["n"] == "0" and row["accuracy"] == "" for row in missing)

    def test_plot_categories_alphabetical(self, tmp_path):
        report = score(full_grid_predictions())
        emit_report(report, tmp_path, HEADER)
        rows = read_csv(tmp_path / "plot_by_strategy.csv")
        tag_zero = [row["category"] for row in rows if row["modality"] == "tag" and row["strategy"] == "zero"]
        assert tag_zero == sorted(tag_zero)

    def test_plot_by_modality_swaps_group_and_series(self, tmp_path):
        report = score(full_grid_predictions())
        emit_report(report, tmp_path, HEADER)
        by_strategy = read_csv(tmp_path / "plot_by_strategy.csv")
        by_modality = read_csv(tmp_path / "plot_by_modality.csv")
        assert list(by_strategy[0]) == ["backend", "modality", "category", "strategy", "n", "accuracy"]
        assert list(by_modality[0]) == ["backend", "strategy", "category", "modality", "n", "accuracy"]
        assert len(by_modality) == 9 * 13
        # Keyed by column name, the rows of one file are the rows of the other.
        assert sorted(sorted(row.items()) for row in by_modality) == sorted(sorted(row.items()) for row in by_strategy)
        # Within a backend, groups are the outer loop and series the inner one, both in declaration order.
        assert [(row["strategy"], row["modality"]) for row in by_modality[:3]] == [
            ("zero", "text"), ("zero", "graph"), ("zero", "tag")
        ]
        assert [(row["modality"], row["strategy"]) for row in by_strategy[:3]] == [
            ("text", "zero"), ("text", "few"), ("text", "cot")
        ]

    def test_accuracy_table_has_nine_numbers(self):
        report = score(full_grid_predictions())
        table = format_accuracy_table(report)
        assert "backend: oracle" in table
        assert table.count("0.") == 9
