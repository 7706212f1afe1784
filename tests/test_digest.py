"""Pin the bytes of every pipeline artifact on a seeded corpus.

The corpus is ~200 synthetic instances plus long-passage and non-ASCII
ones, built with a context limit that truncates a real share of the
prompts (passage, demonstrations and graph sentences all get trimmed), then
run on the oracle and scored, reported and costed in-process. A change that
alters any artifact byte fails here; a deliberate format change bumps the
artifact version and updates the pinned values below.
"""

from __future__ import annotations

import hashlib
from random import Random

import helpers
from eventqa.cli import main
from eventqa.corpus import CausalGraph, EventNode
from eventqa.manifest import read_ndjson

CONTEXT_LIMIT = 200

_LONG_CLAUSES = (
    "The council met at dawn",
    "A storm closed the harbor for two days",
    "Workers walked off the line at noon",
    "The mayor signed the order after a long debate",
    "Trains resumed after the repair",
)

_NON_ASCII_PASSAGE = (
    "Der Bürgermeister unterzeichnete die Verordnung. "
    "Im Café « Zürich » sprach man über naïve Pläne — niemand widersprach! "
    "東京の会議は延期された。 Danach öffnete die Brücke wieder."
)

PINNED = {
    "prompts.ndjson": "37aed6c369a12900020be718354af32cb5eb117dfff77dd92fd3c5690f6417c8",
    "rejections.ndjson": "c89feefd9b39269914dd1677d35ff75cc9bec80662580d7e6af90ade91de1178",
    "responses.ndjson": "7994fc367c7986b92badad431ad88eb2e41dfcab84b7d8e6a66b42e6ac028015",
    "predictions.ndjson": "517e01c5456cfa0113eeb6f1b969bb9d4676199d462a54c507ef4df76cabfc96",
    "report.json": "a69d2e2ab11fcd10b6bd44d0e4a2c2499b2a3ecbf113b0c1ec1f86a79055a768",
    "report.csv": "732584e3b36e3d98b425f091ca58b7bbcee4574654053dcb0cee8e20e10a3f26",
    "plot_by_strategy.csv": "fb4e18fc0902c88e208133452e954645adbd92524a140f99a573cb05971260cb",
    "plot_by_modality.csv": "05d2579ad6a97daf2b808ad735b0d6411c1cf2d79106b580f3c217cf8d645019",
    "cost.json": "0cb53657ad597e0e4273f6e91b0cee5d852c4fa0ff560eed234fd30039a5f01f",
}


def _relabel(graph: CausalGraph, suffix: str) -> CausalGraph:
    nodes = tuple(EventNode(node.id, f"{node.label} {suffix}") for node in graph.nodes)
    return graph._replace(nodes=nodes)


def _non_ascii(instance):
    graph = _relabel(instance.graph, "in Zürich — café")
    first, last = graph.nodes[0].label, graph.nodes[-1].label
    return instance._replace(passage=_NON_ASCII_PASSAGE, graph=graph, question=f'Did "{first}" cause "{last}"?')


def _long_passage(instance, rng: Random):
    sentences = [rng.choice(_LONG_CLAUSES) + "." for _ in range(rng.randint(8, 14))]
    return instance._replace(passage=" ".join(sentences))


def _corpus():
    rng = Random(606)
    instances = []
    for index, instance in enumerate(helpers.synthetic_split(200, seed=606, id_prefix="dig")):
        if index % 25 == 3:
            instance = _non_ascii(instance)
        elif index % 6 == 1:
            instance = _long_passage(instance, rng)
        instances.append(instance)
    pool = list(helpers.synthetic_split(12, seed=607, id_prefix="pool"))
    pool[4] = _non_ascii(pool[4])
    return instances, pool


def _run_pipeline(tmp_path):
    instances, pool = _corpus()
    dataset, pool_file, out = tmp_path / "dataset.ndjson", tmp_path / "pool.ndjson", tmp_path / "out"
    helpers.write_dataset(dataset, instances)
    helpers.write_dataset(pool_file, pool)
    steps = (
        ("build", "--dataset", dataset, "--demo-pool", pool_file, "--out", out, "--seed", 5,
         "--context-limit", CONTEXT_LIMIT),
        ("run", "--out", out, "--backend", "oracle"),
        ("score", "--out", out, "--dataset", dataset),
        ("report", "--out", out),
        ("cost", "--out", out, "--model", "gpt-3.5-turbo"),
    )
    for argv in steps:
        assert main([str(part) for part in argv]) == 0, argv
    return out


def test_artifact_digests_are_pinned(tmp_path):
    out = _run_pipeline(tmp_path)

    # The corpus must exercise what the digests are meant to pin.
    _, prompts = read_ndjson(out / "prompts.ndjson")
    truncated = [row for row in prompts if row["truncation_applied"]]
    assert 0.1 < len(truncated) / len(list(prompts)) < 0.9
    assert any(
        "Examples" not in helpers.prompt_sections(row["prompt_text"]) and row["config"]["strategy"] != "zero"
        for row in truncated
    )
    assert any(not row["prompt_text"].isascii() for row in truncated)
    assert any(not row["prompt_text"].isascii() for row in prompts if not row["truncation_applied"])

    # A row keeps only what it cannot derive: the strategy fixes the demonstrations and traces, the two
    # labels fix whether a prediction is correct, and a prompt's header lines fix its sections.
    for name in ("prompts.ndjson", "predictions.ndjson"):
        _, rows = read_ndjson(out / name)
        for row in rows:
            assert row["config"].keys() == {"strategy", "modality"} and "correct" not in row, (name, row)
            assert "sections" not in row and row.get("extracted", {}).keys() <= {"answer", "method"}, (name, row)

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED
