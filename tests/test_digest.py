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
    "prompts.ndjson": "800e158b3c087d76485f8e3b0a9cdce80da51d32b2c8bafc655a91b5df2b5f2b",
    "rejections.ndjson": "91a5f0a1fa5fe21c756e9fb66e19c06b9099a21167e68cbaadd64514f8a66322",
    "responses.ndjson": "a379fab3c31aa4f392046fc62dffbcbcabc07ea07c80fd4011a582892f782fc8",
    "predictions.ndjson": "af998e4ed93b1c69064cf75dfe20f03a619770a4617716c7b68b3c398a773041",
    "report.json": "2317d24b9c47bdc5f332512d7c2f607a5da8c3c82952a8a443fd3abc656ef6f5",
    "report.csv": "86c69c167e87435bcba1e31e17886ee5eee1da832e8d3b7c819893da77f29e50",
    "plot_by_strategy.csv": "c8707aa6e47088e4e26fe13f62b54cead2b14d54054971e27f2980a78f160419",
    "plot_by_modality.csv": "dcc6a1fd374c81f0305f3df9d446be089765944848b483c9d14d30522685edcd",
    "cost.json": "ffedbcc1aadca742892009e46b019325a73b976f143e1900ff0004d968839465",
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

    # A row keeps only what it cannot derive: the strategy fixes the demonstrations and traces, and the two
    # labels fix whether a prediction is correct.
    for name in ("prompts.ndjson", "predictions.ndjson"):
        _, rows = read_ndjson(out / name)
        for row in rows:
            assert row["config"].keys() == {"strategy", "modality"} and "correct" not in row, (name, row)

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED
