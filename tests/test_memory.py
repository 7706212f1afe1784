"""Peak memory of the streamed stages does not grow with the manifest.

Each check runs a stage on a generated prompts manifest of short records
under ``tracemalloc``, which counts only what is allocated while it runs.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

from eventqa import manifest
from eventqa.cli import PROMPTS_FILE, main
from eventqa.promptkit import all_configs

SMALL, LARGE = 10_000, 100_000


def _write_prompts(out: Path, count: int) -> int:
    """Write ``count`` short prompt records in manifest order; return the file's size in bytes."""
    configs = [config.to_dict() for config in sorted(all_configs(), key=lambda c: c.selector)]

    def records():
        for k in range(count):
            yield {
                "instance_id": f"i{k // len(configs):06d}",
                "config": configs[k % len(configs)],
                "prompt_text": f"Did event {k} happen?",
                "token_count": 5,
                "truncation_applied": False,
                "sections": {},
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
    assert len(responses) == SMALL
