"""Peak memory of the streamed stages does not grow with their input.

Each check runs a stage on a generated manifest or dataset under
``tracemalloc``, which counts only what is allocated while it runs.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from eventqa import backends, manifest  # noqa: F401  (loaded here, so no measured run counts loading it)
from eventqa.cli import PROMPTS_FILE, RESPONSES_FILE, _file_sha, main
from eventqa.vocab import all_configs

SMALL, LARGE = 10_000, 100_000


def _write_prompts(out: Path, count: int) -> int:
    """Write ``count`` short prompt records in manifest order; return the file's size in bytes."""
    configs = [manifest.as_row(config) for config in sorted(all_configs(), key=lambda c: c.selector)]

    def records():
        for k in range(count):
            yield {
                "instance_id": f"i{k // len(configs):06d}",
                "config": configs[k % len(configs)],
                "prompt_text": f"Did event {k} happen?",
                "token_count": 5,
                "truncation_applied": False,
                "tokenizer": "simple",
            }

    out.mkdir()
    manifest.write_ndjson(out / PROMPTS_FILE, manifest.make_header("build", 0, {"count": count}), records())
    return (out / PROMPTS_FILE).stat().st_size


@pytest.fixture(scope="module")
def prompt_dirs(tmp_path_factory):
    """{record count: (directory holding its prompts manifest, manifest size in bytes)}."""
    root = tmp_path_factory.mktemp("memory")
    return {count: (root / str(count), _write_prompts(root / str(count), count)) for count in (SMALL, LARGE)}


def _peak_bytes(argv: list) -> int:
    tracemalloc.start()
    try:
        assert main([str(part) for part in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cost_stage_peak_is_flat_in_manifest_size(prompt_dirs):
    """``cost`` folds the records as the stream reader yields them."""
    argv = {count: ["cost", "--out", out, "--model", "gpt-4o"] for count, (out, _) in prompt_dirs.items()}
    main([str(part) for part in argv[SMALL]])  # warm: load pricing, fill the interpreter's caches
    peaks = {count: _peak_bytes(argv[count]) for count in (SMALL, LARGE)}
    assert peaks[LARGE] < 1.5 * peaks[SMALL], peaks
    for count, (_, size) in prompt_dirs.items():
        assert peaks[count] < size / 10, (count, peaks[count], size)


def test_oracle_run_peak_is_far_below_the_manifest(prompt_dirs):
    """``run`` passes over the sorted prompts twice and keeps nothing per prompt."""
    out, size = prompt_dirs[SMALL]
    peak = _peak_bytes(["run", "--out", out, "--backend", "oracle"])
    assert peak < size / 10, (peak, size)
    _, responses = manifest.read_ndjson(out / "responses.ndjson")
    assert sum(1 for _ in responses) == SMALL


@pytest.fixture(scope="module")
def response_dirs(tmp_path_factory):
    """(dataset path, {record count: directory holding a responses manifest of that many records, in order}).

    The dataset covers the larger manifest, so it costs both runs the same.
    """
    root = tmp_path_factory.mktemp("responses")
    selectors = sorted(config.selector for config in all_configs())
    instance_ids = [f"i{k:06d}" for k in range(-(-LARGE // len(selectors)))]
    dataset = root / "dataset.ndjson"
    with open(dataset, "w", encoding="utf-8") as handle:
        for k, instance_id in enumerate(instance_ids):
            record = {
                "instance_id": instance_id,
                "passage": "The rally went ahead.",
                "question": "Did the rally happen?",
                "answer": "yes" if k % 2 else "no",
                "category": "causal",
                "graphs": [],
            }
            handle.write(json.dumps(record) + "\n")

    def records(count):
        for k in range(count):
            yield {
                "instance_id": instance_ids[k // len(selectors)],
                "config": selectors[k % len(selectors)],
                "raw_text": "yes" if k % 3 else "no",
                "input_tokens": 5,
                "output_tokens": 1,
                "latency": 0.0,
                "attempt_count": 1,
                "backend": "oracle",
                "flags": [],
            }

    dirs = {}
    for count in (SMALL, LARGE):
        out = dirs[count] = root / str(count)
        out.mkdir()
        manifest.write_ndjson(out / RESPONSES_FILE, manifest.make_header("run", 0, {"count": count}), records(count))
    return dataset, dirs


def test_score_stage_peak_is_flat_in_manifest_size(response_dirs):
    """``score`` writes and folds each prediction as it is made when the responses arrive in order."""
    dataset, dirs = response_dirs
    argv = {count: ["score", "--out", out, "--dataset", dataset] for count, out in dirs.items()}
    main([str(part) for part in argv[SMALL]])  # warm: fill the interpreter's caches
    peaks = {count: _peak_bytes(argv[count]) for count in (SMALL, LARGE)}
    assert peaks[LARGE] < 1.5 * peaks[SMALL], peaks
    _, predictions = manifest.read_ndjson(dirs[LARGE] / "predictions.ndjson")
    assert sum(1 for _ in predictions) == LARGE


def test_score_peak_does_not_grow_with_graphs(tmp_path):
    """``score`` reads each record's labels and parses no graph, so records with 64-node graphs cost it no more.

    Only the record being read is decoded at a time: about 70 KB here, against
    a peak of about 0.5 MB for the labels and the streamed manifests.
    """
    graph = {
        "graph_id": "g",
        "kind": "instance",
        "nodes": [{"id": f"n{j}", "label": f"event number {j}"} for j in range(64)],
        "edges": [{"source": f"n{j}", "target": f"n{j + 1}", "relation": "enables"} for j in range(63)],
    }
    argv = {}
    for graphs in ([], [graph]):
        root = tmp_path / f"graphs{len(graphs)}"
        root.mkdir()
        with open(root / "dataset.ndjson", "w", encoding="utf-8") as handle:
            for k in range(4_000):
                record = {
                    "instance_id": f"i{k:06d}",
                    "passage": "The rally went ahead.",
                    "question": "Did the rally happen?",
                    "answer": "yes" if k % 2 else "no",
                    "category": "causal",
                    "graphs": graphs,
                }
                handle.write(json.dumps(record) + "\n")
        responses = (
            {"instance_id": f"i{k:06d}", "config": "zero-graph", "raw_text": "yes", "backend": "oracle"}
            for k in range(4_000)
        )
        manifest.write_ndjson(root / RESPONSES_FILE, manifest.make_header("run", 0, {}), responses)
        argv[len(graphs)] = ["score", "--out", root, "--dataset", root / "dataset.ndjson"]
    main([str(part) for part in argv[0]])  # warm: fill the interpreter's caches
    peaks = {count: _peak_bytes(argv[count]) for count in argv}
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_build_peak_is_far_below_the_dataset(tmp_path):
    """``build`` streams its dataset: it holds the instance ids, not the parsed instances and their graphs.

    The peak is about 1.1 MB, most of it the 1 MiB chunk the dataset is
    hashed in, against a 7 MB dataset; holding every parsed instance costs
    about twice the file's size.
    """
    dataset = tmp_path / "dataset.ndjson"
    with open(dataset, "w", encoding="utf-8") as handle:
        for k in range(5_000):
            graph = {
                "graph_id": f"g{k}",
                "kind": "instance",
                "nodes": [{"id": f"n{j}", "label": f"event number {j} of instance {k}"} for j in range(8)],
                "edges": [{"source": f"n{j}", "target": f"n{j + 1}", "relation": "enables"} for j in range(7)],
            }
            record = {
                "instance_id": f"i{k:06d}",
                "passage": "The rally went ahead after the storm passed. " * 8,
                "question": "Did event number 1 enable event number 2?",
                "answer": "yes" if k % 2 else "no",
                "category": "causal",
                "graphs": [graph],
            }
            handle.write(json.dumps(record) + "\n")
    argv = ["build", "--dataset", dataset, "--out", tmp_path / "out", "--configs", "zero-graph"]
    main([str(part) for part in argv + ["--split", "10"]])  # warm: fill the interpreter's caches
    peak = _peak_bytes(argv)
    size = dataset.stat().st_size
    assert peak < size / 4, (peak, size)
    _, prompts = manifest.read_ndjson(tmp_path / "out" / PROMPTS_FILE)
    assert sum(1 for _ in prompts) == 5_000


def test_file_hash_reads_in_chunks(tmp_path):
    """``build`` hashes its dataset and demo pool a small chunk at a time, holding neither file whole."""
    data = random.Random(0).randbytes(8 << 20)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = _file_sha(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()[:16]
    assert peak < 256 << 10, peak
