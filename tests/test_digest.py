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
    "prompts.ndjson": "111ba1128f86316e02da9fea0cbcaca09b6b996438bdbe48a6cd116382ab23a1",
    "rejections.ndjson": "b7f8a2538723c82f58a5407c4eb94d122da55cae3516865f1ba19d6ffd68abb1",
    "responses.ndjson": "9b3cf216ae8b3ef21157814d1f4952c22ecee8f1617ec9f9d4e470ee74fa6380",
    "predictions.ndjson": "66a66ae3b6b017ba5c736521141f68b2ad79727ab8fe26df541654f25b851caa",
    "report.json": "151ba6fcdaed3e9f42bc49789faae80c93bd24f706eb50521f9c59ff0f7c9990",
    "report.csv": "c6c7b5472948141b72b19f85dc0206a5f07fba733d1cead54aac8f3674ce165f",
    "plot_by_strategy.csv": "4c77e7612aae5b3cbb7bdb41b8e5a6f037bb33abb73238b025d141f96a67dc9b",
    "plot_by_modality.csv": "11045076c133e13707cc051c5f8341ce8394e6e8496aced0e550c9fce2c306e6",
    "cost.json": "3ab1b9a030f6643d39c8b154ff7c826d80b97b9a71996cc060aec7caa58c3939",
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
    assert any("Examples" not in row["sections"] and row["config"]["strategy"] != "zero" for row in truncated)
    assert any(not row["prompt_text"].isascii() for row in truncated)
    assert any(not row["prompt_text"].isascii() for row in prompts if not row["truncation_applied"])

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED
