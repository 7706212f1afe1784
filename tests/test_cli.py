from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

import eventqa
import helpers
from eventqa import cli, manifest, promptkit
from eventqa.cli import main
from eventqa.costmodel import load_pricing, project_run_cost
from eventqa.promptkit import PromptRecord

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
        assert len(records) == 27

    def test_zero_text_only_sections(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("build", "--dataset", DATASET, "--out", out, "--configs", "zero-text")
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert len(records) == 13
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
        assert len(records) == 5

    def test_context_limit_truncates(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "build", "--dataset", DATASET, "--out", out, "--configs", "zero-tag", "--context-limit", 60
        )
        assert rc == 0
        _, records = manifest.read_ndjson(out / "prompts.ndjson")
        assert all(row["token_count"] <= 60 for row in records)
        assert any(row["truncation_applied"] for row in records)


    def test_each_graph_verbalized_once_per_use(self, tmp_path, monkeypatch):
        calls = Counter()
        original = promptkit.verbalize_graph

        def counting(graph):
            calls[graph.graph_id] += 1
            return original(graph)

        monkeypatch.setattr(promptkit, "verbalize_graph", counting)
        monkeypatch.setattr(cli, "verbalize_graph", counting)
        assert run_cli("build", "--dataset", DATASET, "--demo-pool", POOL, "--out", tmp_path / "out") == 0
        pool_graphs = {json.loads(line)["graphs"][0]["graph_id"] for line in Path(POOL).read_text().splitlines()}
        graph_modalities = [m for m in promptkit.Modality if m is not promptkit.Modality.TEXT]
        assert pool_graphs & set(calls)
        for graph_id, count in calls.items():
            assert count <= (len(graph_modalities) if graph_id in pool_graphs else 1), graph_id


def test_importing_the_cli_does_not_load_requests():
    src = str(Path(eventqa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import eventqa.cli, sys; assert 'requests' not in sys.modules, 'requests was imported'"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


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
            ({"kind": "bogus"}, "unknown kind 'bogus'"),
            ({"kind": "oracle", "context_limit": 0}, "context_limit must be positive"),
            (5, "must map backend names to JSON objects"),
            ({"kind": "oracle", "context_limit": "abc"}, "context_limit must be an integer"),
            ({"kind": "oracle", "max_concurrency": 2.5}, "max_concurrency must be an integer"),
            ({"kind": "oracle", "retry_policy": "fast"}, "retry_policy must be a JSON object"),
            ({"kind": "oracle", "retry_policy": {"max_attempts": True}}, "max_attempts must be an integer"),
            ({"kind": "oracle", "retry_policy": {"base_backoff": -1}}, "base_backoff must be finite and non-negative"),
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

    def test_cost_matches_library_projection(self, built):
        assert run_cli("cost", "--out", built, "--model", "gpt-3.5-turbo", "--expected-output-tokens", 30) == 0
        payload = json.loads((built / "cost.json").read_text())
        _, rows = manifest.read_ndjson(built / "prompts.ndjson")
        prompts = [PromptRecord.from_dict(row) for row in rows]
        from eventqa.cli import _default_pricing_path

        expected = project_run_cost(prompts, 30, "gpt-3.5-turbo", load_pricing(_default_pricing_path()))
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
