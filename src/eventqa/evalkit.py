"""Scoring and report emission.

Accuracy is the fraction of questions answered correctly; unparseable
outputs stay in the denominator and are additionally reported as a rate of
their own. Aggregates are keyed by (backend, strategy, modality) with a
per-category breakdown that partitions each configuration cell. Emission
is deterministic: fixed column order, sorted keys, categories alphabetical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import ALL_CATEGORIES, Answer, QuestionCategory
from .extract import ExtractedAnswer, ExtractedLabel
from .manifest import HEADER_KEY, csv_header_line
from .promptkit import Modality, PromptConfig, Strategy


class ScoringError(Exception):
    pass


class ReportFormat(str, Enum):
    JSON = "json"
    CSV = "csv"


class PlotGrouping(str, Enum):
    BY_MODALITY = "by_modality"
    BY_STRATEGY = "by_strategy"


@dataclass(frozen=True)
class PredictionRecord:
    instance_id: str
    config: PromptConfig
    backend: str
    extracted: ExtractedAnswer
    gold: Answer
    category: QuestionCategory

    @property
    def correct(self) -> bool:
        return self.extracted.answer.as_answer() is not None and self.extracted.answer.as_answer() == self.gold

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "config": self.config.to_dict(),
            "backend": self.backend,
            "extracted": self.extracted.to_dict(),
            "gold": self.gold.value,
            "category": self.category.value,
            "correct": self.correct,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PredictionRecord":
        return cls(
            instance_id=raw["instance_id"],
            config=PromptConfig.from_dict(raw["config"]),
            backend=raw["backend"],
            extracted=ExtractedAnswer.from_dict(raw["extracted"]),
            gold=Answer(raw["gold"]),
            category=QuestionCategory(raw["category"]),
        )


@dataclass
class CellStats:
    n: int = 0
    correct: int = 0
    unparseable: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.n if self.n else 0.0

    @property
    def unparseable_rate(self) -> float:
        return self.unparseable / self.n if self.n else 0.0

    def add(self, record: PredictionRecord) -> None:
        self.n += 1
        if record.correct:
            self.correct += 1
        if record.extracted.answer is ExtractedLabel.UNPARSEABLE:
            self.unparseable += 1


ConfigKey = tuple[str, Strategy, Modality]
ClusterKey = tuple[str, Strategy, Modality, QuestionCategory]


@dataclass
class AccuracyReport:
    cells: dict[ConfigKey, CellStats] = field(default_factory=dict)
    cluster_cells: dict[ClusterKey, CellStats] = field(default_factory=dict)


def score(predictions: Iterable[PredictionRecord]) -> AccuracyReport:
    """Aggregate predictions, in one pass, into per-configuration and per-category cells."""
    seen: set[tuple[str, str, str]] = set()
    report = AccuracyReport()
    for record in predictions:
        identity = (record.instance_id, record.config.selector, record.backend)
        if identity in seen:
            raise ScoringError(f"duplicate prediction for {identity}")
        seen.add(identity)
        config_key = (record.backend, record.config.strategy, record.config.modality)
        cluster_key = config_key + (record.category,)
        report.cells.setdefault(config_key, CellStats()).add(record)
        report.cluster_cells.setdefault(cluster_key, CellStats()).add(record)
    return report


_STRATEGY_ORDER = {s: i for i, s in enumerate(Strategy)}
_MODALITY_ORDER = {m: i for i, m in enumerate(Modality)}


def _sorted_config_keys(report: AccuracyReport) -> list[ConfigKey]:
    return sorted(report.cells, key=lambda k: (k[0], _STRATEGY_ORDER[k[1]], _MODALITY_ORDER[k[2]]))


def _sorted_cluster_keys(report: AccuracyReport) -> list[ClusterKey]:
    return sorted(
        report.cluster_cells,
        key=lambda k: (k[0], _STRATEGY_ORDER[k[1]], _MODALITY_ORDER[k[2]], k[3].value),
    )


def _cell_row(key: Sequence, stats: CellStats, category: str = "") -> dict:
    return {
        "backend": key[0],
        "strategy": key[1].value,
        "modality": key[2].value,
        "category": category,
        "n": stats.n,
        "accuracy": stats.accuracy,
        "unparseable_rate": stats.unparseable_rate,
    }


def emit_report(report: AccuracyReport, format: ReportFormat, path: str | Path, header: dict | None = None) -> None:
    """Write the accuracy report as JSON or CSV, deterministically."""
    if not report.cells:
        raise ScoringError("cannot emit an empty report")
    path = Path(path)
    config_rows = [_cell_row(key, report.cells[key]) for key in _sorted_config_keys(report)]
    cluster_rows = [
        _cell_row(key, report.cluster_cells[key], category=key[3].value) for key in _sorted_cluster_keys(report)
    ]

    if format is ReportFormat.JSON:
        payload: dict = {}
        if header is not None:
            payload[HEADER_KEY] = header
        payload["cells"] = config_rows
        payload["cluster_cells"] = cluster_rows
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return

    columns = ["backend", "strategy", "modality", "category", "n", "accuracy", "unparseable_rate"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header is not None:
            handle.write(csv_header_line(header) + "\n")
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in config_rows + cluster_rows:
            writer.writerow(row)


def emit_plot_data(
    report: AccuracyReport,
    grouping: PlotGrouping,
    path: str | Path,
    header: dict | None = None,
) -> None:
    """Write per-category bar-chart data in long CSV form.

    Every category appears for every (backend, group, series) combination
    present in the report; empty cells get n=0 and a blank accuracy so the
    full 13-row shape is stable for plotting.
    """
    if not report.cluster_cells:
        raise ScoringError("report has no per-category cells")
    path = Path(path)

    backends = sorted({key[0] for key in report.cluster_cells})
    strategies = sorted({key[1] for key in report.cluster_cells}, key=_STRATEGY_ORDER.__getitem__)
    modalities = sorted({key[2] for key in report.cluster_cells}, key=_MODALITY_ORDER.__getitem__)
    categories = sorted(ALL_CATEGORIES, key=lambda c: c.value)

    if grouping is PlotGrouping.BY_STRATEGY:
        groups, series_values = modalities, strategies
        group_name, series_name = "modality", "strategy"
    else:
        groups, series_values = strategies, modalities
        group_name, series_name = "strategy", "modality"

    with open(path, "w", encoding="utf-8", newline="") as handle:
        if header is not None:
            handle.write(csv_header_line(header) + "\n")
        writer = csv.writer(handle)
        writer.writerow(["backend", group_name, "category", series_name, "n", "accuracy"])
        for backend in backends:
            for group in groups:
                for category in categories:
                    for series in series_values:
                        if grouping is PlotGrouping.BY_STRATEGY:
                            key = (backend, series, group, category)
                        else:
                            key = (backend, group, series, category)
                        stats = report.cluster_cells.get(key)
                        n = stats.n if stats else 0
                        accuracy = stats.accuracy if stats and stats.n else ""
                        writer.writerow([backend, group.value, category.value, series.value, n, accuracy])


def format_accuracy_table(report: AccuracyReport) -> str:
    """Per-backend strategy x modality accuracy grid for terminal output."""
    lines: list[str] = []
    for backend in sorted({key[0] for key in report.cells}):
        lines.append(f"backend: {backend}")
        lines.append(f"  {'':8s}" + "".join(f"{m.value:>10s}" for m in Modality))
        for strategy in Strategy:
            row = [f"  {strategy.value:8s}"]
            for modality in Modality:
                stats = report.cells.get((backend, strategy, modality))
                row.append(f"{stats.accuracy:10.4f}" if stats else f"{'-':>10s}")
            lines.append("".join(row))
    return "\n".join(lines)
