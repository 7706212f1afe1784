"""Every stage that reads a config file refuses a spoiled value by file and key, or reads it as before.

A valid config file has one value spoiled: set to a value of each other JSON
type, or dropped, or one unknown key is added beside it. The values spoiled
are those of a backends-config entry and its ``retry_policy`` (read by
``run``), of a schema file and its three nested tables (``build --schema``),
and of a pricing file's model entry (``cost``). The stage then runs
in-process. It must exit 2 with an error naming the file and the key and
write nothing, or exit 0 and write the same bytes as on the valid file; a
traceback fails the test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from eventqa.cli import _default_pricing_path, main
from eventqa.vocab import DEFAULT_SCHEMA

DATA = Path(__file__).parent / "data"
DATASET = str(DATA / "sample_dataset.ndjson")
POOL = str(DATA / "demo_pool.ndjson")

# One value of each JSON type; a value is set to each one whose type is not its own.
JSON_VALUES = (None, True, 7, 1.5, "x", [1, 2], {"k": 1})
DROPPED = object()
UNKNOWN = "extra"

# Each value of the entry is its default, so dropping one changes no byte.
BACKENDS = {
    "x": {
        "kind": "oracle",
        "model_name": "",
        "endpoint": "",
        "context_limit": 16384,
        "max_concurrency": 4,
        "retry_policy": {"max_attempts": 5, "base_backoff": 0.5},
        "api_key_env": "TAGEQA_API_KEY",
        "request_timeout": 60.0,
        "fixtures_path": None,
    }
}

class ConfigFile(NamedTuple):
    name: str
    valid: dict
    owners: list[tuple]  # the paths of the objects whose values are spoiled
    argv: list[str]  # the stage's arguments after --out; the file's path follows them
    outputs: list[str]


# ``cost`` prices gpt-4o-mini, so a spoiled gpt-4o entry that still reads changes no byte.
STAGES = {
    "run": ConfigFile(
        "backends.json", BACKENDS, [("x",), ("x", "retry_policy")],
        ["--backend", "x", "--backends-config"], ["responses.ndjson"],
    ),
    "build": ConfigFile(
        "schema.json", DEFAULT_SCHEMA, [(), ("graph_fields",), ("node_fields",), ("edge_fields",)],
        ["--dataset", DATASET, "--demo-pool", POOL, "--schema"], ["prompts.ndjson", "rejections.ndjson"],
    ),
    "cost": ConfigFile(
        "pricing.json", json.loads(_default_pricing_path().read_text(encoding="utf-8")), [("models", "gpt-4o")],
        ["--model", "gpt-4o-mini", "--pricing"], ["cost.json"],
    ),
}


def _at(config, path: tuple):
    for key in path:
        config = config[key]
    return config


def _cases():
    for stage, config in STAGES.items():
        for owner in config.owners:
            for key, current in _at(config.valid, owner).items():
                for value in [DROPPED, *(value for value in JSON_VALUES if type(value) is not type(current))]:
                    name = "dropped" if value is DROPPED else json.dumps(value, separators=(",", ":"))
                    yield pytest.param(stage, (*owner, key), value, id=f"{stage}-{'.'.join((*owner, key))}-{name}")
            yield pytest.param(stage, (*owner, UNKNOWN), 1, id=f"{stage}-{'.'.join((*owner, UNKNOWN))}")
    # JSON can escape a lone surrogate, which UTF-8 cannot encode.
    yield pytest.param("run", ("x", "model_name"), "gpt\ud800", id="run-x.model_name-lone-surrogate")
    yield pytest.param("run", ("x", "fixtures_path"), "f\ud800.json", id="run-x.fixtures_path-lone-surrogate")


def _stage(stage: str, out: Path, config: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([stage, "--out", str(out), *STAGES[stage].argv, str(config)])
    return code, err.getvalue()


def _contents(out: Path, names: list[str]) -> dict[str, bytes | None]:
    return {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Path:
    """An output directory in which every stage has read its valid config file."""
    out, configs = tmp_path_factory.mktemp("valid"), tmp_path_factory.mktemp("configs")
    for stage in ("build", "run", "cost"):
        config = configs / STAGES[stage].name
        config.write_text(json.dumps(STAGES[stage].valid), encoding="utf-8")
        assert _stage(stage, out, config) == (0, ""), stage
    return out


@pytest.mark.parametrize("stage, path, value", _cases())
def test_a_spoiled_config_value_is_named_or_read_as_before(valid, tmp_path, stage, path, value):
    config = STAGES[stage]
    spoiled = copy.deepcopy(config.valid)
    *owner, key = path
    if value is DROPPED:
        del _at(spoiled, owner)[key]
    else:
        _at(spoiled, owner)[key] = value
    config_file = tmp_path / config.name
    config_file.write_text(json.dumps(spoiled), encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(valid, out)
    for output in config.outputs:
        (out / output).unlink()
    code, err = _stage(stage, out, config_file)
    assert "Traceback" not in err
    if code == 0:
        assert _contents(out, config.outputs) == {name: (valid / name).read_bytes() for name in config.outputs}
    else:
        assert code == 2, err
        assert str(config_file) in err and all(part in err for part in path[-2:]), err
        assert _contents(out, config.outputs) == dict.fromkeys(config.outputs), err
