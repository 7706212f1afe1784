from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

import eventqa
import helpers
from eventqa import backends, cli, corpus, costmodel, evalkit, graphcore, manifest, promptkit
from eventqa.cli import main
from eventqa.costmodel import load_pricing, project_run_cost

DATA = Path(__file__).parent / "data"
DATASET = str(DATA / "sample_dataset.ndjson")
POOL = str(DATA / "demo_pool.ndjson")


def run_cli(*argv):
    return main([str(part) for part in argv])


@pytest.fixture
def built(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("build", "--dataset", DATASET, "--demo-pool", POOL, "--out", out, "--seed", 7)
    assert rc == 0
    return out


class TestBuild:
    def test_three_instances_all_configs_gives_27_records(self, tmp_path):
        dataset = tmp_path / "three.ndjson"
        helpers.write_dataset(dataset, helpers.synthetic_split(3, seed=1).instances)
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", dataset, "--demo-pool", POOL, "--out", out)
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert len(list(records)) == 27

    def test_zero_text_only_sections(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--out", out, "--configs", "zero-text")
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert len(list(records)) == 13
        for row in records:
            assert sorted(row["sections"]) == ["Answer", "Instruction", "Question", "Text"]

    def test_mean_token_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("build", "--dataset", DATASET, "--demo-pool", POOL, "--out", out)
        printed = capsys.readouterr().out
        assert "mean_tokens" in printed
        assert "cot-tag" in printed

    def test_demo_pool_required_for_few_shot(self, tmp_path, capsys):
        rc = run_cli("build", "--dataset", DATASET, "--out", tmp_path / "out", "--configs", "few-text")
        assert rc == 2
        assert "--demo-pool" in capsys.readouterr().err

    def test_contaminated_demo_pool_rejected(self, tmp_path, capsys):
        rc = run_cli(
            "build", "--dataset", DATASET, "--demo-pool", DATASET, "--out", tmp_path / "out", "--configs", "few-text"
        )
        assert rc == 2
        assert "contaminated" in capsys.readouterr().err

    def test_repeated_configuration_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--out", out, "--configs", "zero-graph,zero-graphs")
        assert rc == 2
        assert "selected more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read schema file"),
            ("{not json", "is not valid JSON"),
            ("[]", "is not a JSON object"),
            ('{"graph_fields": "g"}', "'graph_fields' must be a JSON object"),
            ('{"node_fields": 5}', "'node_fields' must be a JSON object"),
            ('{"edge_fields": ["source"]}', "'edge_fields' must be a JSON object"),
            ('{"instance_id": 5}', "field name of schema key 'instance_id' must be a string"),
            ('{"graph_fields": {"nodes": 5}}', "field name of schema key 'graph_fields.nodes' must be a string"),
        ],
        ids=[
            "missing", "not-json", "not-an-object", "string-graph-fields", "number-node-fields", "list-edge-fields",
            "number-field-name", "number-nested-field-name",
        ],
    )
    def test_bad_schema_file_exits_2(self, tmp_path, capsys, content, message):
        schema = tmp_path / "schema.json"
        if content is not None:
            schema.write_text(content)
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--schema", schema, "--out", out, "--configs", "zero-text")
        assert rc == 2
        err = capsys.readouterr().err
        assert str(schema) in err and message in err
        assert not out.exists()

    def test_build_that_keeps_no_instance_exits_2(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"instance_id": "no_such_field"}')
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--schema", schema, "--out", out, "--configs", "zero-text")
        assert rc == 2
        assert "no instance of" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_that_keeps_no_instance_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--split", 0, "--out", out, "--configs", "zero-text")
        assert rc == 2
        assert "--split 0 keeps no instance of" in capsys.readouterr().err
        assert not out.exists()

    def test_rejection_log_written(self, tmp_path):
        dataset = tmp_path / "mixed.ndjson"
        good = helpers.instance_to_record(helpers.synthetic_split(1, seed=2).instances[0])
        bad = dict(good, instance_id="bad", answer="maybe")
        dataset.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", dataset, "--out", out, "--configs", "zero-text")
        assert rc == 0
        _, rejections = manifest.read_ndjson(out / "rejections.ndjson")
        assert [r["instance_id"] for r in rejections] == ["bad"]

    def test_custom_split_size(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--out", out, "--configs", "zero-text", "--split", 5)
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert len(list(records)) == 5

    def test_context_limit_truncates(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            "build", "--dataset", DATASET, "--out", out, "--configs", "zero-tag", "--context-limit", 60
        )
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert all(row["token_count"] <= 60 for row in records)
        truncated = sum(row["truncation_applied"] for row in records)
        assert truncated
        (summary,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  zero-tag ")]
        assert summary.endswith(f" truncated={truncated:5d}")

    def test_failed_build_leaves_no_prompts_file(self, tmp_path):
        instances = helpers.synthetic_split(3, seed=1).instances
        dataset = tmp_path / "data.ndjson"
        helpers.write_dataset(dataset, [instances[0], instances[1]._replace(graph=None), instances[2]])
        out = tmp_path / "out"
        assert run_cli("build", "--dataset", dataset, "--out", out, "--configs", "zero-graph") == 2
        assert list(out.iterdir()) == []

    def test_failed_rebuild_keeps_the_previous_rejection_log(self, tmp_path, capsys):
        instances = helpers.synthetic_split(3, seed=1).instances
        records = [helpers.instance_to_record(instance) for instance in instances]
        dataset = tmp_path / "data.ndjson"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in [records[0], dict(records[1], answer="maybe")]))
        out = tmp_path / "out"
        assert run_cli("build", "--dataset", dataset, "--out", out, "--configs", "zero-graph") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["prompts.ndjson", "rejections.ndjson"]

        # Another rejection, then an instance without the graph zero-graph needs.
        graphless = dict(records[2], graphs=[])
        dataset.write_text("".join(json.dumps(r) + "\n" for r in [dict(records[0], answer="?"), graphless]))
        assert run_cli("build", "--dataset", dataset, "--out", out, "--configs", "zero-graph") == 2
        assert "has no graph" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_each_graph_verbalized_once_per_use(self, tmp_path, monkeypatch):
        calls = Counter()
        original = graphcore.verbalize_graph

        def counting(graph):
            calls[graph.graph_id] += 1
            return original(graph)

        monkeypatch.setattr(promptkit, "verbalize_graph", counting)
        monkeypatch.setattr(graphcore, "verbalize_graph", counting)
        assert run_cli("build", "--dataset", DATASET, "--demo-pool", POOL, "--out", tmp_path / "out") == 0
        pool_graphs = {json.loads(line)["graphs"][0]["graph_id"] for line in Path(POOL).read_text().splitlines()}
        assert pool_graphs & set(calls)
        for graph_id, count in calls.items():
            assert count == 1, graph_id

    def test_each_passage_split_once(self, tmp_path, monkeypatch):
        calls = Counter()
        original = promptkit.split_sentences

        def counting(text):
            calls[text] += 1
            return original(text)

        monkeypatch.setattr(promptkit, "split_sentences", counting)
        promptkit._passage_sentences.cache_clear()
        assert run_cli("build", "--dataset", DATASET, "--demo-pool", POOL, "--out", tmp_path / "out") == 0
        passages = [json.loads(line)["passage"] for line in Path(DATASET).read_text().splitlines()]
        assert [calls[passage] for passage in passages] == [1] * len(passages)


# --- start-up: each stage imports only the layers it runs -----------------------

# What every stage loads; only build and run parse datasets, verbalize graphs and assemble prompts.
CORE_MODULES = {"eventqa", "eventqa.vocab", "eventqa.manifest"}
PROMPT_MODULES = CORE_MODULES | {"eventqa.corpus", "eventqa.graphcore", "eventqa.promptkit"}
STAGE_MODULES = {
    "build": PROMPT_MODULES,
    "run": PROMPT_MODULES | {"eventqa.backends"},
    "score": CORE_MODULES | {"eventqa.evalkit", "eventqa.extract"},
    "report": CORE_MODULES | {"eventqa.evalkit", "eventqa.extract"},
    "cost": CORE_MODULES | {"eventqa.costmodel"},
}
STAGE_ARGS = {
    "build": ["--dataset", DATASET, "--demo-pool", POOL, "--seed", "7"],
    "run": ["--backend", "oracle"],
    "score": ["--dataset", DATASET],
    "report": [],
    "cost": ["--model", "gpt-3.5-turbo"],
}


def _python(*argv, timeout=60) -> subprocess.CompletedProcess:
    """``python *argv`` with this checkout's ``eventqa`` importable."""
    src = str(Path(eventqa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def cli_import_modules() -> set[str]:
    result = _python("-c", "import eventqa.cli, sys; print('\\n'.join(sys.modules))")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize(
    "module",
    [
        "eventqa.corpus",
        "eventqa.promptkit",
        "eventqa.graphcore",
        "eventqa.backends",
        "eventqa.evalkit",
        "eventqa.extract",
        "eventqa.costmodel",
        "decimal",
        "fractions",
        "concurrent.futures",
        "requests",
        "hashlib",
        "_hashlib",
        "dataclasses",
        "inspect",
    ],
)
def test_importing_the_cli_does_not_load(cli_import_modules, module):
    assert module not in cli_import_modules


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    """An output directory that every stage has run in once."""
    out = tmp_path_factory.mktemp("pipeline")
    for stage in STAGE_MODULES:
        assert run_cli(stage, "--out", out, *STAGE_ARGS[stage]) == 0, stage
    return out


@pytest.mark.parametrize("stage", list(STAGE_MODULES))
def test_each_stage_loads_only_its_layers(pipeline_dir, tmp_path, stage):
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir, out)
    result = _python("-X", "importtime", "-m", "eventqa.cli", stage, "--out", out, *STAGE_ARGS[stage])
    assert result.returncode == 0, result.stderr
    # "import time: <self us> | <cumulative us> | <indented module name>"; the
    # cli itself runs as __main__, so it must not show up as eventqa.cli.
    imported = {
        line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")
    }
    assert {name for name in imported if name.split(".")[0] == "eventqa"} == STAGE_MODULES[stage]
    # OpenSSL's libcrypto costs every stage ~3.7 MB resident; manifest.sha256 needs none of it.
    assert "_hashlib" not in imported
    # Records are named tuples: building dataclasses cost every stage ~25 ms of start-up.
    assert not {"dataclasses", "inspect"} & imported


def test_score_with_a_schema_reads_remapped_labels(pipeline_dir, tmp_path):
    """``score --schema`` in a fresh interpreter, where it alone loads ``corpus``, scores as the default run does."""
    renamed = {"instance_id": "uid", "answer": "label", "category": "cluster", "graphs": "structures"}
    dataset = tmp_path / "remapped.ndjson"
    with open(dataset, "w", encoding="utf-8") as handle:
        for line in Path(DATASET).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            handle.write(json.dumps({renamed.get(key, key): value for key, value in record.items()}) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(renamed), encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir, out)
    (out / "predictions.ndjson").unlink()
    result = _python("-m", "eventqa.cli", "score", "--out", out, "--dataset", dataset, "--schema", schema)
    assert result.returncode == 0, result.stderr
    assert (out / "predictions.ndjson").read_bytes() == (pipeline_dir / "predictions.ndjson").read_bytes()


LAYER_ERRORS = [
    corpus.CorpusError,
    promptkit.PromptError,
    backends.BackendError,
    manifest.ManifestError,
    evalkit.ScoringError,
    costmodel.CostError,
    cli.CliError,
]


@pytest.mark.parametrize("error", LAYER_ERRORS, ids=lambda error: error.__name__)
def test_layer_errors_share_the_base_main_catches(error):
    assert issubclass(error, eventqa.EventQAError)


@pytest.mark.parametrize("error", [graphcore.GraphQueryError, graphcore.VerbalizationParseError])
def test_graph_errors_stay_outside_the_base(error):
    assert not issubclass(error, eventqa.EventQAError)


def _malformed_dataset(tmp_path) -> list:
    path = tmp_path / "malformed.ndjson"
    path.write_text(Path(DATASET).read_text() + "{not json\n")
    return ["build", "--dataset", path, "--strict", "--out", tmp_path / "strict"]


def _unknown_backend_kind(tmp_path) -> list:
    config = tmp_path / "backends.json"
    config.write_text(json.dumps({"x": {"kind": "bogus"}}))
    return ["run", "--backend", "x", "--backends-config", config]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp_path: ["report", "--out", tmp_path], "missing manifest"),
        (_unknown_backend_kind, "kind must be one of http_chat, mock, oracle, got 'bogus'"),
        (lambda tmp_path: ["cost", "--model", "no-such-model"], "no pricing for model 'no-such-model'"),
        (_malformed_dataset, "malformed.ndjson:14:"),
        (lambda tmp_path: ["score", "--dataset", tmp_path / "absent.ndjson"], "cannot read dataset"),
        (lambda tmp_path: ["score", "--dataset", DATASET, "--schema", tmp_path / "absent.json"], "cannot read schema"),
    ],
    ids=["ManifestError", "BackendError", "CostError", "CorpusError", "score-dataset", "score-schema"],
)
def test_lazily_loaded_layer_error_exits_2(pipeline_dir, tmp_path, argv, message):
    argv = argv(tmp_path)
    if "--out" not in argv:
        argv += ["--out", pipeline_dir]
    result = _python("-m", "eventqa.cli", *argv)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and message in result.stderr, result.stderr
    assert "Traceback" not in result.stderr


def _spoil_row(path, number, spoil):
    """Replace row ``number`` of a manifest, counted from 1 after the header, by ``spoil`` of it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[number] = json.dumps(spoil(json.loads(lines[number])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _with_demo_count(value):
    """A spoiler that sets the row's ``config.demo_count`` to ``value``."""
    return lambda row: dict(row, config=dict(row["config"], demo_count=value))


class TestPipeline:
    def test_full_oracle_pipeline(self, built, capsys):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 0
        table = capsys.readouterr().out
        assert "backend: oracle" in table
        assert run_cli("report", "--out", built) == 0
        assert run_cli("cost", "--out", built, "--model", "gpt-3.5-turbo") == 0
        for name in (
            "responses.ndjson",
            "predictions.ndjson",
            "report.json",
            "report.csv",
            "plot_by_strategy.csv",
            "plot_by_modality.csv",
            "cost.json",
        ):
            assert (built / name).exists(), name

    def test_oracle_scores_perfectly_on_grammar_questions(self, built):
        run_cli("run", "--out", built, "--backend", "oracle")
        run_cli("score", "--out", built, "--dataset", DATASET)
        _, predictions = manifest.read_ndjson(built / "predictions.ndjson")
        # Grammar questions in the sample dataset were built so gold equals
        # the oracle's graph answer; the oracle reads the graph out of the
        # prompt, so only graph-bearing modalities can be answered.
        grammar_ids = {"s01", "s02", "s03", "s04", "s06", "s07", "s09", "s10", "s11"}
        checked = 0
        for row in predictions:
            if row["instance_id"] in grammar_ids and row["config"]["modality"] in ("graph", "tag"):
                assert row["correct"], (row["instance_id"], row["config"])
                checked += 1
        assert checked == len(grammar_ids) * 6

    def test_score_without_run_manifest_fails_clearly(self, built, capsys):
        rc = run_cli("score", "--out", built, "--dataset", DATASET)
        assert rc == 2
        assert "missing manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda row: {k: v for k, v in row.items() if k != "token_count"}, "no field 'token_count'"),
            (lambda row: dict(row, instance_id=5), "instance_id must be a non-empty string, got 5"),
            (lambda row: dict(row, config=dict(row["config"], strategy="many-shot")), "config.strategy must be one of"),
            (_with_demo_count(3.9), "config.demo_count must be a non-negative integer, got 3.9"),
            (_with_demo_count("3"), "config.demo_count must be a non-negative integer, got '3'"),
            (_with_demo_count(True), "config.demo_count must be a non-negative integer, got True"),
            (_with_demo_count(-1), "config.demo_count must be a non-negative integer, got -1"),
        ],
        ids=[
            "no-token-count",
            "numeric-instance-id",
            "unknown-strategy",
            "float-demo-count",
            "string-demo-count",
            "bool-demo-count",
            "negative-demo-count",
        ],
    )
    def test_run_refuses_a_malformed_prompt_row(self, built, capsys, spoil, message):
        path = built / "prompts.ndjson"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = json.dumps(spoil(json.loads(lines[3])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("run", "--out", built, "--backend", "oracle") == 2
        err = capsys.readouterr().err
        assert f"{path} row 3 is malformed: {message}" in err
        assert not (built / "responses.ndjson").exists()

    @pytest.mark.parametrize(
        "number, spoil",
        [
            (None, lambda row: [1, 2]),
            (None, lambda row: {"instance_id": 5, "config": "zero-text"}),
            (3, lambda row: {k: v for k, v in row.items() if k != "raw_text"}),
        ],
        ids=["not-an-object", "numeric-instance-id", "no-raw-text"],
    )
    def test_run_refuses_to_resume_over_a_malformed_response_row(self, built, capsys, monkeypatch, number, spoil):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        path = built / "responses.ndjson"
        # Drop the last response, so a resume has a request to send, and spoil row ``number`` (None: put the
        # malformed row in the last one's place).
        lines = path.read_text(encoding="utf-8").splitlines()
        if number is None:
            number = len(lines) - 1
        else:
            del lines[-1]
        lines[number] = json.dumps(spoil(json.loads(lines[number])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spoiled = path.read_bytes()
        sent = []
        monkeypatch.setattr(backends, "complete", lambda *args: sent.append(args))
        assert run_cli("run", "--out", built, "--backend", "oracle") == 2
        assert f"{path} row {number} is malformed" in capsys.readouterr().err
        assert not sent
        assert path.read_bytes() == spoiled

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda row: {k: v for k, v in row.items() if k != "raw_text"}, "no field 'raw_text'"),
            (lambda row: dict(row, raw_text=5), "raw_text must be a string, got 5"),
            (lambda row: dict(row, config=["zero-text"]), "config must be a configuration selector, got ['zero-text']"),
            (lambda row: dict(row, config=5), "config must be a configuration selector, got 5"),
            (lambda row: dict(row, config=None), "config must be a configuration selector, got None"),
            (lambda row: [row], "is not a JSON object"),
        ],
        ids=["no-raw-text", "numeric-raw-text", "list-config", "numeric-config", "null-config", "not-an-object"],
    )
    def test_score_refuses_a_malformed_response_row(self, built, capsys, spoil, message):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        _spoil_row(built / "responses.ndjson", 3, spoil)
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 2
        err = capsys.readouterr().err
        assert f"{built / 'responses.ndjson'} row 3 is malformed: {message}" in err
        assert not (built / "predictions.ndjson").exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda row: dict(row, gold="maybe"), "gold must be one of yes, no, got 'maybe'"),
            (
                lambda row: dict(row, extracted=dict(row["extracted"], matched_span=[1])),
                "extracted.matched_span must be null or two byte offsets, start first, got [1]",
            ),
            (lambda row: dict(row, backend=5), "backend must be a string, got 5"),
            (lambda row: dict(row, instance_id=7), "instance_id must be a non-empty string, got 7"),
            (_with_demo_count(True), "config.demo_count must be a non-negative integer, got True"),
            (lambda row: dict(row, extracted=None), "extracted must be a JSON object, got None"),
            (lambda row: dict(row, correct=not row["correct"]), "correct must be "),
            (lambda row: dict(row, correct=int(row["correct"])), "correct must be "),
            (_with_demo_count(-1), "config.demo_count must be a non-negative integer, got -1"),
        ],
        ids=[
            "unknown-gold",
            "short-span",
            "numeric-backend",
            "numeric-instance-id",
            "bool-demo-count",
            "null-extracted",
            "flipped-correct",
            "numeric-correct",
            "negative-demo-count",
        ],
    )
    def test_report_refuses_a_malformed_prediction_row(self, built, capsys, spoil, message):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 0
        _spoil_row(built / "predictions.ndjson", 3, spoil)
        assert run_cli("report", "--out", built) == 2
        err = capsys.readouterr().err
        assert f"{built / 'predictions.ndjson'} row 3 is malformed: {message}" in err
        assert not (built / "report.json").exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (
                lambda row: dict(row, config=dict(row["config"], strategy="bogus")),
                "config.strategy must be one of zero, few, cot, got 'bogus'",
            ),
            (lambda row: dict(row, token_count="5"), "token_count must be a non-negative integer, got '5'"),
            (lambda row: dict(row, token_count=5.9), "token_count must be a non-negative integer, got 5.9"),
            (lambda row: dict(row, token_count=True), "token_count must be a non-negative integer, got True"),
            (_with_demo_count(3.9), "config.demo_count must be a non-negative integer, got 3.9"),
            (_with_demo_count("3"), "config.demo_count must be a non-negative integer, got '3'"),
            (_with_demo_count(True), "config.demo_count must be a non-negative integer, got True"),
            (_with_demo_count(-1), "config.demo_count must be a non-negative integer, got -1"),
            (lambda row: dict(row, tokenizer="chars"), "tokenizer must be 'simple', got 'chars'"),
            (lambda row: dict(row, prompt_text=None), "prompt_text must be a string, got None"),
            (lambda row: dict(row, instance_id=5), "instance_id must be a non-empty string, got 5"),
        ],
        ids=[
            "unknown-strategy",
            "string-count",
            "float-count",
            "bool-count",
            "float-demo-count",
            "string-demo-count",
            "bool-demo-count",
            "negative-demo-count",
            "other-tokenizer",
            "null-prompt-text",
            "numeric-instance-id",
        ],
    )
    def test_cost_refuses_a_malformed_prompt_row(self, built, capsys, spoil, message):
        _spoil_row(built / "prompts.ndjson", 3, spoil)
        assert run_cli("cost", "--out", built, "--model", "gpt-4o") == 2
        err = capsys.readouterr().err
        assert f"{built / 'prompts.ndjson'} row 3 is malformed: {message}" in err
        assert not (built / "cost.json").exists()

    @pytest.mark.parametrize("output_tokens", [[], ["--expected-output-tokens", 5]], ids=["per-strategy", "expected"])
    def test_cost_refuses_a_manifest_without_prompts(self, built, capsys, output_tokens):
        path = built / "prompts.ndjson"
        path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        assert run_cli("cost", "--out", built, "--model", "gpt-4o", *output_tokens) == 2
        assert "holds no prompts to cost" in capsys.readouterr().err
        assert not (built / "cost.json").exists()

    def test_score_refuses_a_response_whose_instance_is_labelled_twice(self, built, tmp_path, capsys):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        first = json.loads(Path(DATASET).read_text(encoding="utf-8").splitlines()[0])
        flipped = dict(first, answer="yes" if first["answer"] == "no" else "no")
        dataset = tmp_path / "twice.ndjson"
        dataset.write_text(Path(DATASET).read_text(encoding="utf-8") + json.dumps(flipped) + "\n", encoding="utf-8")
        assert run_cli("score", "--out", built, "--dataset", dataset) == 2
        assert f"response for unknown instance {first['instance_id']!r}" in capsys.readouterr().err
        assert not (built / "predictions.ndjson").exists()

    def test_score_sorts_responses_that_arrive_out_of_order(self, built, tmp_path):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 0
        assert run_cli("report", "--out", built) == 0
        expected = {name: (built / name).read_bytes() for name in ("predictions.ndjson", "report.json")}

        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        header, *records = (built / "responses.ndjson").read_text(encoding="utf-8").splitlines()
        records.reverse()
        (shuffled / "responses.ndjson").write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        assert run_cli("score", "--out", shuffled, "--dataset", DATASET) == 0
        assert run_cli("report", "--out", shuffled) == 0
        assert {name: (shuffled / name).read_bytes() for name in expected} == expected

    @pytest.mark.parametrize("adjacent", [True, False], ids=["adjacent", "apart"])
    def test_score_refuses_a_repeated_response(self, built, capsys, adjacent):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        path = built / "responses.ndjson"
        header, *records = path.read_text(encoding="utf-8").splitlines()
        records.insert(2 if adjacent else len(records), records[1])
        path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 2
        assert "duplicate prediction" in capsys.readouterr().err

    def test_report_refuses_predictions_out_of_order(self, built, capsys):
        assert run_cli("run", "--out", built, "--backend", "oracle") == 0
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 0
        path = built / "predictions.ndjson"
        header, *records = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, *reversed(records)]) + "\n", encoding="utf-8")
        assert run_cli("report", "--out", built) == 2
        assert "out of (instance_id, config, backend) order" in capsys.readouterr().err

    def test_run_unknown_backend(self, built, capsys):
        rc = run_cli("run", "--out", built, "--backend", "gpt-17")
        assert rc == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_run_context_limit_guard(self, built, tmp_path, capsys):
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"tiny": {"kind": "oracle", "context_limit": 10}}))
        rc = run_cli("run", "--out", built, "--backend", "tiny", "--backends-config", config)
        assert rc == 2
        assert "context limit" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pricng", "_fixtures"])
    def test_run_rejects_unknown_and_private_backend_keys(self, built, tmp_path, capsys, key):
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"x": {"kind": "oracle", key: {}}}))
        rc = run_cli("run", "--out", built, "--backend", "x", "--backends-config", config)
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"model_name": "m"}, "missing 'kind'"),
            ({"kind": "bogus"}, "kind must be one of http_chat, mock, oracle, got 'bogus'"),
            ({"kind": "oracle", "context_limit": 0}, "context_limit must be positive"),
            (5, "must map backend names to JSON objects"),
            ({"kind": "oracle", "context_limit": "abc"}, "context_limit must be an integer"),
            ({"kind": "oracle", "max_concurrency": 2.5}, "max_concurrency must be an integer"),
            ({"kind": "oracle", "retry_policy": "fast"}, "retry_policy must be a JSON object"),
            ({"kind": "oracle", "retry_policy": {"max_attempts": True}}, "max_attempts must be an integer"),
            ({"kind": "oracle", "retry_policy": {"base_backoff": -1}}, "base_backoff must be finite and non-negative"),
            ({"kind": "http_chat", "retry_policy": {"max_attempts": 1}}, "endpoint must be an http(s):// URL, got ''"),
            (
                {"kind": "http_chat", "endpoint": "localhost:8000/v1", "retry_policy": {"max_attempts": 1}},
                "endpoint must be an http(s):// URL, got 'localhost:8000/v1'",
            ),
        ],
        ids=[
            "no-kind",
            "unknown-kind",
            "zero-context-limit",
            "entry-not-object",
            "string-context-limit",
            "float-max-concurrency",
            "string-retry-policy",
            "bool-max-attempts",
            "negative-backoff",
            "no-endpoint",
            "schemeless-endpoint",
        ],
    )
    def test_run_bad_backend_entry_exits_2(self, built, tmp_path, capsys, entry, message):
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"x": entry}))
        rc = run_cli("run", "--out", built, "--backend", "x", "--backends-config", config)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "'x'" in err
        assert not (built / "responses.ndjson").exists()

    @pytest.mark.parametrize(
        "content, message", [(None, "cannot read"), ("{not json", "not valid JSON")], ids=["missing", "not-json"]
    )
    def test_run_unreadable_backends_config_exits_2(self, built, tmp_path, capsys, content, message):
        config = tmp_path / "backends.json"
        if content is not None:
            config.write_text(content)
        rc = run_cli("run", "--out", built, "--backend", "x", "--backends-config", config)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "'x'" in err

    def test_run_rejects_zero_max_concurrency(self, built, capsys):
        rc = run_cli("run", "--out", built, "--backend", "oracle", "--max-concurrency", 0)
        assert rc == 2
        assert "max_concurrency must be at least 1" in capsys.readouterr().err
        assert not (built / "responses.ndjson").exists()

    def test_run_rejects_zero_max_concurrency_over_a_configured_backend(self, built, tmp_path, capsys):
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"x": {"kind": "oracle", "max_concurrency": 2}}))
        rc = run_cli("run", "--out", built, "--backend", "x", "--backends-config", config, "--max-concurrency", 0)
        assert rc == 2
        assert "backend 'x': max_concurrency must be at least 1" in capsys.readouterr().err
        assert not (built / "responses.ndjson").exists()

    def test_run_with_missing_fixtures_file_exits_2(self, built, tmp_path, capsys):
        rc = run_cli("run", "--out", built, "--backend", "mock", "--fixtures", tmp_path / "missing.json")
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (built / "responses.ndjson").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read pricing file"),
            ("{not json", "is not valid JSON"),
            ('{"label": "x"}', 'has no "models" object'),
            ('{"models": {"m": {"input_per_million": "abc", "output_per_million": "1"}}}', "input_per_million must"),
            ('{"models": {"m": {"input_per_million": "1", "output_per_million": -2}}}', "output_per_million must"),
            ('{"models": {"m": {"output_per_million": "1"}}}', "no field 'input_per_million'"),
            ('{"models": {"m": ["1", "2"]}}', "model 'm': is not a JSON object"),
        ],
        ids=["missing", "not-json", "no-models", "string-price", "negative-price", "missing-price", "not-an-object"],
    )
    def test_bad_pricing_file_exits_2(self, built, tmp_path, capsys, content, message):
        pricing = tmp_path / "pricing.json"
        if content is not None:
            pricing.write_text(content)
        rc = run_cli("cost", "--out", built, "--model", "m", "--pricing", pricing)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(pricing) in err and message in err
        assert not (built / "cost.json").exists()

    def test_cost_matches_library_projection(self, built):
        assert run_cli("cost", "--out", built, "--model", "gpt-3.5-turbo", "--expected-output-tokens", 30) == 0
        payload = json.loads((built / "cost.json").read_text())
        _, rows = manifest.read_ndjson(built / "prompts.ndjson")
        token_counts = [row["token_count"] for row in rows]
        from eventqa.cli import _default_pricing_path

        tokens = sum(token_counts)
        expected = project_run_cost(len(token_counts), tokens, 30, "gpt-3.5-turbo", load_pricing(_default_pricing_path()))
        assert Decimal(payload["estimate"]["total_cost"]) == expected.total_cost
        assert payload["estimate"]["display_cost"] == str(expected.display_cost)

    def test_every_artifact_has_provenance_header(self, built):
        run_cli("run", "--out", built, "--backend", "oracle")
        run_cli("score", "--out", built, "--dataset", DATASET)
        run_cli("report", "--out", built)
        run_cli("cost", "--out", built, "--model", "gpt-4o")
        for name in ("prompts.ndjson", "responses.ndjson", "predictions.ndjson", "rejections.ndjson"):
            header, _ = manifest.read_ndjson(built / name)
            assert header["artifact"] == "eventqa"
            assert "config_hash" in header and "seed" in header and "version" in header
        report_payload = json.loads((built / "report.json").read_text())
        assert manifest.HEADER_KEY in report_payload
        cost_payload = json.loads((built / "cost.json").read_text())
        assert manifest.HEADER_KEY in cost_payload
        for name in ("report.csv", "plot_by_strategy.csv", "plot_by_modality.csv"):
            first = (built / name).read_text().splitlines()[0]
            assert first.startswith("# {")

    def test_stage_isolation_rerun_reproduces_deleted_artifacts(self, built):
        run_cli("run", "--out", built, "--backend", "oracle")
        run_cli("score", "--out", built, "--dataset", DATASET)
        run_cli("report", "--out", built)
        originals = {
            name: (built / name).read_bytes()
            for name in ("predictions.ndjson", "report.json", "report.csv", "plot_by_strategy.csv")
        }
        for name in originals:
            (built / name).unlink()
        assert run_cli("score", "--out", built, "--dataset", DATASET) == 0
        assert run_cli("report", "--out", built) == 0
        for name, data in originals.items():
            assert (built / name).read_bytes() == data, name

    def test_mock_backend_via_flag(self, built, tmp_path):
        from eventqa.backends import prompt_fingerprint

        _, rows = manifest.read_ndjson(built / "prompts.ndjson")
        fixtures = {prompt_fingerprint(row["prompt_text"]): "no" for row in rows}
        fixtures_path = tmp_path / "fixtures.json"
        fixtures_path.write_text(json.dumps(fixtures))
        assert run_cli("run", "--out", built, "--backend", "mock", "--fixtures", fixtures_path) == 0
        _, records = manifest.read_ndjson(built / "responses.ndjson")
        assert all(row["raw_text"] == "no" for row in records)
