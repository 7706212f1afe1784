"""Dataset loading and stratified sampling for event-QA corpora.

On-disk format is newline-delimited JSON, one QA instance per line. Each
record carries a passage, a yes/no question, a gold answer, a question
category, and zero or more causal graphs (instance and/or schema). Field
names can be remapped through a schema descriptor (``vocab.load_schema``)
so foreign dumps load without code changes; see ``DEFAULT_SCHEMA`` for the
canonical names.

A record is read in one pass: each value is checked where it is read, by
the type its field holds (text, an id, or a name of an enum), and only the
graph ``graph_kind`` selects is parsed. The three readers live in
``vocab``, so ``score`` reads ids and labels by them without this module.
The graph types live in ``graphcore``, so ``run`` asks the oracle without it.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from random import Random
from typing import Iterator, NamedTuple, Sequence

from .graphcore import CausalEdge, CausalGraph, EventNode, Relation
from .vocab import (
    DEFAULT_SCHEMA,
    SECTION_HEADERS,
    Answer,
    CorpusError,
    DatasetFormatError,
    GraphKind,
    QuestionCategory,
    _id,
    _named,
    _text,
    read_label,
)

logger = logging.getLogger(__name__)

FULL = "full"
SMALL = "small"
SMALL_SIZE = 1024


class SamplingError(CorpusError):
    """Raised when a sample request cannot be satisfied."""


class QAInstance(NamedTuple):
    instance_id: str
    passage: str
    question: str
    gold_answer: Answer
    graph: CausalGraph | None
    category: QuestionCategory


class RejectedRecord(NamedTuple):
    instance_id: str
    reason: str


def _header_free(value, field: str) -> str:
    """A text value holding no section header: the oracle finds a prompt's graph and question by their headers."""
    text = _text(value, field)
    for header in SECTION_HEADERS.values():
        if header in text:
            raise ValueError(f"{field} holds the section header {header!r}")
    return text


def _json_objects(value, what: str) -> list[dict]:
    """The objects of a JSON array of objects."""
    if not isinstance(value, list):
        raise ValueError(f"{what}s are not a JSON array")
    for item in value:
        if not isinstance(item, dict):
            raise ValueError(f"{what} is not a JSON object")
    return value


def _parse_graph(raw: dict, schema: dict) -> CausalGraph:
    gf, nf, ef = schema["graph_fields"], schema["node_fields"], schema["edge_fields"]
    nodes = []
    ids: dict[str, str] = {}  # each node id, to itself
    for node in _json_objects(raw.get(gf["nodes"], []), "graph node"):
        node_id = _id(node.get(nf["id"]), "node id")
        if node_id in ids:
            raise ValueError(f"duplicate node id {node_id!r}")
        ids[node_id] = node_id
        label = _text(node.get(nf["label"]), f"label of node {node_id!r}")
        # Labels feed the fixed verbalization grammar; quotes and
        # newlines would make the emitted sentences unparseable.
        if '"' in label or "\n" in label:
            raise ValueError(f"label of node {node_id!r} contains a quote or newline")
        nodes.append(EventNode(node_id, label))
    edges = []
    for edge in _json_objects(raw.get(gf["edges"], []), "graph edge"):
        # An edge holds its endpoints' own id strings, not the decoder's second copies.
        source = ids.get(_id(edge.get(ef["source"]), "edge source"))
        target = ids.get(_id(edge.get(ef["target"]), "edge target"))
        if source is None or target is None:
            raise ValueError("dangling edge endpoint")
        if source == target:
            raise ValueError(f"self-loop on node {source!r}")
        edges.append(CausalEdge(source, target, _named(Relation, edge.get(ef["relation"]), "relation")))
    return CausalGraph(tuple(nodes), tuple(edges))


def _parse_instance(raw: dict, instance_id: str, schema: dict, graph_kind: GraphKind) -> QAInstance:
    passage = _header_free(raw.get(schema["passage"]), "passage")
    question = _header_free(raw.get(schema["question"]), "question")
    answer, category = read_label(raw, schema)
    graphs = _json_objects(raw.get(schema["graphs"], []), "graph")
    kind = schema["graph_fields"]["kind"]
    kinds = [_named(GraphKind, graph.get(kind, "instance"), "graph kind") for graph in graphs]
    # Every graph's kind is read, but only the selected graph is parsed: the first of ``graph_kind``, else the first.
    selected = graphs[kinds.index(graph_kind)] if graph_kind in kinds else graphs[0] if graphs else None
    graph = None if selected is None else _parse_graph(selected, schema)
    return QAInstance(instance_id, passage, question, answer, graph, category)


def read_dataset(
    path: str | Path,
    schema: dict | None = None,
    *,
    strict: bool = False,
    graph_kind: GraphKind = GraphKind.INSTANCE,
    warn: bool = True,
) -> Iterator[QAInstance | RejectedRecord]:
    """Yield a newline-delimited JSON dataset's instances and rejections in file order, one record at a time.

    Field names are those of a complete ``schema``; ``None`` stands for
    ``DEFAULT_SCHEMA``, and ``vocab.load_schema`` reads a schema file into
    a complete one.

    A malformed record, or a later record with an id already yielded, is
    logged (unless ``warn`` is false, as on a second pass over a file) and
    yielded as a ``RejectedRecord``; with ``strict=True`` the first such
    record raises ``DatasetFormatError`` instead. Every yielded instance
    was checked as it was read, so downstream code can rely on the type
    invariants without re-checking. Only the ids seen so far are held. The
    file is opened on the first ``next`` and closed when the stream is
    exhausted or closed.
    """
    path = Path(path)
    try:
        # Bytes that are not UTF-8 become lone surrogates, which the text reader rejects.
        handle = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise CorpusError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise CorpusError(f"cannot read dataset file {path}: {exc.strerror or exc}") from None

    schema = schema or DEFAULT_SCHEMA
    seen_ids: set[str] = set()
    with handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            instance_id = ""  # what the rejection log names when the record has no id that ``_id`` reads
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError("record is not a JSON object")
                instance_id = _id(raw.get(schema["instance_id"]), "instance_id")
                instance = _parse_instance(raw, instance_id, schema, graph_kind)
                if instance_id in seen_ids:
                    raise ValueError(f"duplicate instance_id {instance_id!r}")
            except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                reason = str(exc) or exc.__class__.__name__
                if strict:
                    raise DatasetFormatError(f"{path}:{line_no}: {reason}") from exc
                if warn:
                    logger.warning("skipping record at %s:%d: %s", path, line_no, reason)
                yield RejectedRecord(instance_id=instance_id, reason=reason)
                continue
            seen_ids.add(instance_id)
            yield instance


def _allocate_quotas(sizes: list[int], total: int) -> list[int]:
    """Floor-proportional allocation with largest-remainder correction.

    Every exact quota is ``total * size / population``; they share one
    denominator, so integer division gives each floor and a numerator for
    its remainder, and remainder ties are broken deterministically (by
    stratum position). Strata never receive more than their population;
    surplus spills to the strata with the largest remainders that still
    have capacity.
    """
    population = sum(sizes)
    counts, remainders = [], []
    for size in sizes:
        count, remainder = divmod(total * size, population)
        counts.append(count)
        remainders.append(remainder)
    deficit = total - sum(counts)
    order = sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))
    for i in order:
        if deficit == 0:
            break
        if counts[i] < sizes[i]:
            counts[i] += 1
            deficit -= 1
    if deficit > 0:
        raise SamplingError("quota allocation failed to converge")  # unreachable when total <= population
    return counts


def sample_positions(categories: Sequence[QuestionCategory], size: int, seed: int) -> list[int]:
    """The ascending positions of a proportional stratified sample of exactly ``size`` of ``categories``.

    ``categories`` holds each instance's question category, in split order;
    the strata are the categories present. Per-stratum quotas use
    floor-proportional allocation with largest remainder correction, so
    each stratum count is within one of its exact proportional share.
    Selection is driven solely by ``seed``.
    """
    if size > len(categories):
        raise SamplingError(f"requested {size} instances from a split of {len(categories)}")
    if size < 0:
        raise SamplingError("sample size must be non-negative")

    strata: dict[QuestionCategory, list[int]] = {}
    for index, category in enumerate(categories):
        strata.setdefault(category, []).append(index)

    keys = list(strata)
    counts = _allocate_quotas([len(strata[k]) for k in keys], size)

    rng = Random(seed)
    chosen: set[int] = set()
    for stratum_key, count in zip(keys, counts):
        members = strata[stratum_key]
        if count == len(members):
            chosen.update(members)
        else:
            chosen.update(rng.sample(members, count))
    return sorted(chosen)
