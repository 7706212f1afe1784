"""Every stage that reads a manifest refuses a malformed row by name, or reads past a field it does not use.

One row of a valid manifest from the sample data is spoiled: one field, or
one field of its ``config`` or ``extracted`` object, is set to a value of
each other JSON type or dropped (a string also to itself plus an escaped
lone surrogate), or the whole row becomes a non-object.
Each stage that reads that manifest then runs in-process. It must exit 0
and write the same bytes as on the valid manifest, or exit 2 with an error
naming the row and write nothing; a traceback fails the test.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eventqa.cli import main

DATA = Path(__file__).parent / "data"
DATASET = str(DATA / "sample_dataset.ndjson")
POOL = str(DATA / "demo_pool.ndjson")

# One value of each JSON type; a field is set to each one whose type is not its own.
JSON_VALUES = (None, True, 7, 1.5, "x", [1, 2], {"k": 1})
DROPPED = object()

STAGE_ARGS = {
    "run": ["--backend", "oracle"],
    "score": ["--dataset", DATASET],
    "report": [],
    "cost": ["--model", "gpt-4o-mini"],
}
# The stages that read each manifest, and the files each of them writes.
READERS = {
    "prompts.ndjson": {"run": ["responses.ndjson"], "cost": ["cost.json"]},
    "responses.ndjson": {"run": ["responses.ndjson"], "score": ["predictions.ndjson"]},
    "predictions.ndjson": {
        "report": ["report.json", "report.csv", "plot_by_strategy.csv", "plot_by_modality.csv"],
    },
}


def _stage(stage: str, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([stage, "--out", str(out), *STAGE_ARGS[stage]])
    return code, err.getvalue()


def _contents(out: Path, names: list[str]) -> dict[str, bytes | None]:
    return {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Path:
    """An output directory that every stage has run in once, on the sample data."""
    out = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--dataset", DATASET, "--demo-pool", POOL, "--out", str(out)]) == 0
    for stage in STAGE_ARGS:
        # Only score writes to stderr on success: its coverage of the build.
        assert _stage(stage, out) == (0, "scored 117 of 117 prompts\n" if stage == "score" else ""), stage
    return out


@st.composite
def spoilers(draw, rows: list) -> tuple[int, object]:
    """(a row number counted from 1 after the header, that row spoiled)."""
    number = draw(st.integers(1, len(rows)))
    row = rows[number - 1]
    if draw(st.integers(0, 3)) == 0:
        return number, draw(st.sampled_from([value for value in JSON_VALUES if not isinstance(value, dict)]))
    paths = [(name,) for name in row]
    nested = [name for name in ("config", "extracted") if isinstance(row.get(name), dict)]
    paths += [(name, inner) for name in nested for inner in row[name]]
    *owners, field = draw(st.sampled_from(paths))
    spoiled = json.loads(json.dumps(row))
    target = spoiled
    for name in owners:
        target = target[name]
    values = [DROPPED, *(v for v in JSON_VALUES if type(v) is not type(target[field]))]
    if isinstance(target[field], str):
        values.append(target[field] + "\ud800")  # a lone surrogate, which JSON can escape and UTF-8 cannot encode
    value = draw(st.sampled_from(values))
    if value is DROPPED:
        del target[field]
    else:
        target[field] = value
    return number, spoiled


@pytest.mark.parametrize("manifest_name", list(READERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_spoiled_row_is_named_or_read_past(valid, manifest_name, data):
    header, *lines = (valid / manifest_name).read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    resumed = manifest_name == "responses.ndjson"
    # A resumed run sends the last response again, so that one is never spoiled.
    number, spoiled = data.draw(spoilers(rows[:-1] if resumed else rows), label="row number, spoiled row")
    lines[number - 1] = json.dumps(spoiled)
    text = "\n".join([header, *lines]) + "\n"
    for stage, outputs in READERS[manifest_name].items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(valid, out)
            expected = {name: (valid / name).read_bytes() for name in outputs}
            for name in outputs:
                (out / name).unlink()
            (out / manifest_name).write_text(text, encoding="utf-8")
            if stage == "run" and resumed:
                # Resume over every response but the last; one that reads past the spoiled field completes it.
                (out / manifest_name).write_text("\n".join([header, *lines[:-1]]) + "\n", encoding="utf-8")
                expected = {manifest_name: text.encode("utf-8")}
            before = _contents(out, outputs)
            code, err = _stage(stage, out)
            assert "Traceback" not in err
            if code == 0:
                assert _contents(out, outputs) == expected, stage
            else:
                assert code == 2, (stage, err)
                assert f"{out / manifest_name} row {number} is malformed: " in err, (stage, err)
                assert _contents(out, outputs) == before, stage
