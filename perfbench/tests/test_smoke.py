"""Tiny-size pipeline passes of every workload, with the benchmark's own checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import run
from workloads import WORKLOADS, generate

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
SCALE = 0.05


@pytest.fixture(scope="module")
def env():
    return run._child_env()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_passes_its_checks(name, env, tmp_path):
    spec = WORKLOADS[name]
    files = generate(spec, 3, tmp_path / "data", SCALE)
    first = run.run_pass(spec, files, tmp_path / "a", env, run.Deadline(120))
    check = run.check_pass(spec, files, tmp_path / "a", first)
    assert check.errors == [] and check.failed == 0
    assert set(first.walls) == set(run.STAGES) and first.peak_rss_mb > 0
    second = run.run_pass(spec, files, tmp_path / "b", env, run.Deadline(120), in_process=True)
    assert run.check_pass(spec, files, tmp_path / "b", second).digest == check.digest


def test_answer_key_mismatch_fails_the_check(env, tmp_path):
    spec = WORKLOADS["paper-mix"]
    files = generate(spec, 3, tmp_path / "data", SCALE)
    assert files.answer_key
    out = tmp_path / "out"
    result = run.run_pass(spec, files, out, env, run.Deadline(120), in_process=True)
    path = out / "predictions.ndjson"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        if row["instance_id"] in files.answer_key and row["config"]["modality"] == "graph":
            flipped = "no" if row["extracted"]["answer"] == "yes" else "yes"
            lines[i] = line.replace(f'"answer":"{row["extracted"]["answer"]}"', f'"answer":"{flipped}"', 1)
            break
    path.write_text("\n".join(lines) + "\n")
    errors = run.check_pass(spec, files, out, result).errors
    assert any("answer key" in error for error in errors)


def test_traced_pass_emits_every_per_layer_metric(env, tmp_path):
    declared = json.loads(BENCHMARK_JSON.read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert end_to_end == set(run.END_TO_END_UNITS)
    spec = WORKLOADS["long-cot-http"]
    files = generate(spec, 3, tmp_path / "data", SCALE)
    result = run.run_pass(spec, files, tmp_path / "out", env, run.Deadline(120), in_process=True, traced=True)
    assert set(result.metrics) | {"trace_overhead_frac", "failed_frac"} == per_layer
    assert result.metrics["graphcore.verbalize_graph.calls"] == 0
    assert result.metrics["backends.complete.calls"] == run.expected_prompts(spec, files)
    assert result.metrics["backends.retries"] >= 0
