"""Scoring and report emission.

Accuracy is the fraction of questions answered correctly; unparseable
outputs stay in the denominator and are additionally reported as a rate of
their own. A prediction keeps the extracted answer and the rule that found
it, nothing of where in the reply it stood. Its fields are spelled only in
``_PREDICTION_FIELDS``, which makes ``PredictionRecord``: ``score`` writes
it through ``manifest.as_row``, and ``PREDICTION_ROW`` reads it.
Aggregates are keyed by (backend, strategy, modality) with a per-category
breakdown that partitions each configuration cell. Emission
is deterministic: fixed column order, sorted keys, categories alphabetical.
``emit_report`` renders all four report files in memory and replaces them
together, so a failed ``report`` never leaves files of two runs side by side.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Sequence

from . import EventQAError
from .extract import ExtractedAnswer, ExtractedLabel, ExtractionMethod
from .manifest import HEADER_KEY, STRING, Reader, csv_header_line, one_of, replace_files
from .vocab import ALL_CATEGORIES, CONFIG, INSTANCE_ID, Answer, Modality, QuestionCategory, Strategy


class ScoringError(EventQAError):
    pass


_EXTRACTED = Reader(ExtractedAnswer, {"answer": one_of(ExtractedLabel), "method": one_of(ExtractionMethod)})
_PREDICTION_FIELDS = {
    "instance_id": INSTANCE_ID,
    "config": CONFIG,
    "backend": STRING,
    "extracted": ((dict,), "a JSON object", _EXTRACTED),
    "gold": one_of(Answer),
    "category": one_of(QuestionCategory),
}


class PredictionRecord(namedtuple("PredictionRecord", _PREDICTION_FIELDS)):
    """A ``predictions.ndjson`` row: a response's extracted answer beside its gold label and category."""

    __slots__ = ()

    @property
    def correct(self) -> bool:
        # Both labels are str enums, so they compare by value and no Answer
        # is built; "unparseable" never equals a gold answer.
        return self.extracted.answer == self.gold

    @property
    def identity(self) -> tuple[str, str, str]:
        """What predictions are sorted and told apart by."""
        return self.instance_id, self.config.selector, self.backend


# A ``predictions.ndjson`` row, as ``report`` reads it.
PREDICTION_ROW = Reader(PredictionRecord, _PREDICTION_FIELDS)


class CellStats:
    """Running counts of one report cell."""

    __slots__ = ("n", "correct", "unparseable")

    def __init__(self) -> None:
        self.n = self.correct = self.unparseable = 0

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


class AccuracyReport:
    """Cells per (backend, strategy, modality), and per category within each.

    Predictions are folded in (``add``) in ascending identity order, where a
    duplicate repeats the previous identity, so nothing is kept per prediction.
    """

    def __init__(self) -> None:
        self.cells: dict[ConfigKey, CellStats] = {}
        self.cluster_cells: dict[ClusterKey, CellStats] = {}
        self._last: tuple = ()

    def add(self, record: PredictionRecord) -> bool:
        """Fold ``record`` in and return True; return False, folding nothing, if it sorts before the previous one."""
        identity = record.identity
        if identity <= self._last:
            if identity == self._last:
                raise ScoringError(f"duplicate prediction for {identity}")
            return False
        self._last = identity
        config_key = (record.backend, record.config.strategy, record.config.modality)
        self.cells.setdefault(config_key, CellStats()).add(record)
        self.cluster_cells.setdefault(config_key + (record.category,), CellStats()).add(record)
        return True


def score(predictions: Iterable[PredictionRecord]) -> AccuracyReport:
    """Aggregate predictions, in ascending identity order, into per-configuration and per-category cells.

    They are folded in one pass (see ``AccuracyReport.add``). Predictions in
    any other order are refused, since only a sort of all of them could find
    their duplicates.
    """
    report = AccuracyReport()
    for record in predictions:
        if not report.add(record):
            raise ScoringError(f"predictions out of (instance_id, config, backend) order at {record.identity}")
    return report


_STRATEGY_ORDER = {s: i for i, s in enumerate(Strategy)}
_MODALITY_ORDER = {m: i for i, m in enumerate(Modality)}


def _cell_order(key: ConfigKey | ClusterKey) -> tuple:
    """Backend, strategy and modality in declaration order, then the category (str enums compare by value)."""
    return (key[0], _STRATEGY_ORDER[key[1]], _MODALITY_ORDER[key[2]], *key[3:])


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


def _csv(header: dict, rows: Iterable[Iterable]) -> str:
    """A CSV file's text: the ``# {header}`` line, then ``rows``."""
    table = io.StringIO()
    table.write(csv_header_line(header) + "\n")
    csv.writer(table).writerows(rows)
    return table.getvalue()


def emit_report(report: AccuracyReport, out: str | Path, header: dict) -> list[Path]:
    """Write ``report.json``, ``report.csv`` and both plot CSVs into ``out``, all or none; return their paths.

    ``plot_by_strategy.csv`` groups per-category bar-chart data by modality
    with one series per strategy, and ``plot_by_modality.csv`` the other way
    round. Every category appears for every (backend, group, series) present
    in the report; an empty cell gets n=0 and a blank accuracy, so the full
    13-row shape is stable for plotting.
    """
    if not report.cells:
        raise ScoringError("cannot emit an empty report")
    out = Path(out)
    config_rows = [_cell_row(key, report.cells[key]) for key in sorted(report.cells, key=_cell_order)]
    cluster_keys = sorted(report.cluster_cells, key=_cell_order)
    cluster_rows = [_cell_row(key, report.cluster_cells[key], category=key[3].value) for key in cluster_keys]
    payload = {HEADER_KEY: header, "cells": config_rows, "cluster_cells": cluster_rows}
    cell_rows = config_rows + cluster_rows
    texts = {
        out / "report.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        out / "report.csv": _csv(header, [cell_rows[0].keys(), *(row.values() for row in cell_rows)]),
    }

    backends = sorted({key[0] for key in report.cluster_cells})
    strategies = sorted({key[1] for key in report.cluster_cells}, key=_STRATEGY_ORDER.__getitem__)
    modalities = sorted({key[2] for key in report.cluster_cells}, key=_MODALITY_ORDER.__getitem__)
    categories = sorted(ALL_CATEGORIES, key=lambda c: c.value)
    axes = {"strategy": strategies, "modality": modalities}
    for series_name, group_name in (("strategy", "modality"), ("modality", "strategy")):
        rows = [["backend", group_name, "category", series_name, "n", "accuracy"]]
        for backend in backends:
            for group in axes[group_name]:
                for category in categories:
                    for series in axes[series_name]:
                        strategy, modality = (series, group) if series_name == "strategy" else (group, series)
                        stats = report.cluster_cells.get((backend, strategy, modality, category)) or CellStats()
                        accuracy = stats.accuracy if stats.n else ""
                        rows.append([backend, group.value, category.value, series.value, stats.n, accuracy])
        texts[out / f"plot_by_{series_name}.csv"] = _csv(header, rows)
    replace_files(texts)
    return list(texts)


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
