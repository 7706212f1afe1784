"""Dataset loading, validation, and stratified sampling for event-QA corpora.

On-disk format is newline-delimited JSON, one QA instance per line. Each
record carries a passage, a yes/no question, a gold answer, a question
category, and zero or more causal graphs (instance and/or schema). Field
names can be remapped through a schema descriptor (``vocab.load_schema``)
so foreign dumps load without code changes; see ``DEFAULT_SCHEMA`` for the
canonical names.
"""

from __future__ import annotations

import json
import logging
from enum import Enum
from pathlib import Path
from random import Random
from typing import Iterator, NamedTuple, Sequence

from .manifest import encodes_utf8
from .vocab import (
    DEFAULT_SCHEMA,
    SECTION_HEADERS,
    Answer,
    CorpusError,
    DatasetFormatError,
    GraphKind,
    QuestionCategory,
    read_label,
)

logger = logging.getLogger(__name__)

FULL = "full"
SMALL = "small"
SMALL_SIZE = 1024


class SamplingError(CorpusError):
    """Raised when a sample request cannot be satisfied."""


class Relation(str, Enum):
    ENABLES = "enables"
    BLOCKS = "blocks"


def _check_unicode(text: str, what: str) -> None:
    """Reject text that cannot be written as UTF-8: lone surrogates, from "\\ud800" escapes or undecodable bytes."""
    if not encodes_utf8(text):
        raise ValueError(f"{what} holds a lone surrogate or bytes that are not UTF-8")


def _printable(text: str) -> str:
    """``text`` with any lone surrogate spelled out as a backslash escape."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


class EventNode(NamedTuple):
    id: str
    label: str


class CausalEdge(NamedTuple):
    source: str
    target: str
    relation: Relation


class CausalGraph(NamedTuple):
    """Directed multigraph of events with enables/blocks edges.

    Node and edge order is preserved from the source data; downstream
    ordering rules (topological tie-breaks, emission order) depend on it.
    """

    graph_id: str
    kind: GraphKind
    nodes: tuple[EventNode, ...]
    edges: tuple[CausalEdge, ...]

    def node_table(self) -> dict[str, EventNode]:
        return {node.id: node for node in self.nodes}

    def validate(self) -> None:
        """Check all structural invariants; raise ``ValueError`` on the first violation."""
        seen: set[str] = set()
        for node in self.nodes:
            if not node.id:
                raise ValueError("empty node id")
            if node.id in seen:
                raise ValueError(f"duplicate node id {node.id!r}")
            seen.add(node.id)
            if not node.label:
                raise ValueError(f"empty label for node {node.id!r}")
            _check_unicode(node.label, f"label of node {node.id!r}")
            # Labels feed the fixed verbalization grammar; quotes and
            # newlines would make the emitted sentences unparseable.
            if '"' in node.label or "\n" in node.label:
                raise ValueError(f"label of node {node.id!r} contains a quote or newline")
        for edge in self.edges:
            if edge.source not in seen or edge.target not in seen:
                raise ValueError("dangling edge endpoint")
            if edge.source == edge.target:
                raise ValueError(f"self-loop on node {edge.source!r}")
            if not isinstance(edge.relation, Relation):
                raise ValueError(f"unknown relation {edge.relation!r}")


class QAInstance(NamedTuple):
    instance_id: str
    passage: str
    question: str
    gold_answer: Answer
    graph: CausalGraph | None
    category: QuestionCategory

    def validate(self) -> None:
        if not self.instance_id:
            raise ValueError("empty instance_id")
        if not self.passage:
            raise ValueError("empty passage")
        if not self.question:
            raise ValueError("empty question")
        for text, what in ((self.instance_id, "instance_id"), (self.passage, "passage"), (self.question, "question")):
            _check_unicode(text, what)
        # The oracle finds a prompt's graph and question by their headers, so no passage or question may forge one.
        for text, what in ((self.passage, "passage"), (self.question, "question")):
            for header in SECTION_HEADERS.values():
                if header in text:
                    raise ValueError(f"{what} holds the section header {header!r}")
        if not isinstance(self.gold_answer, Answer):
            raise ValueError(f"gold answer must be yes or no, got {self.gold_answer!r}")
        if self.graph is not None:
            self.graph.validate()


class RejectedRecord(NamedTuple):
    instance_id: str
    reason: str


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    return value


def _json_objects(value, what: str) -> list[dict]:
    """The objects of a JSON array of objects."""
    if not isinstance(value, list):
        raise ValueError(f"{what}s are not a JSON array")
    return [_json_object(item, what) for item in value]


def _parse_graph(raw: dict, schema: dict) -> CausalGraph:
    gf, nf, ef = schema["graph_fields"], schema["node_fields"], schema["edge_fields"]
    kind_raw = str(raw.get(gf["kind"], "instance")).lower()
    try:
        kind = GraphKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown graph kind {kind_raw!r}") from None
    nodes = tuple(
        EventNode(id=str(node[nf["id"]]), label=str(node[nf["label"]]))
        for node in _json_objects(raw.get(gf["nodes"], []), "graph node")
    )
    # An edge holds its endpoints' own id strings, not the decoder's second copies.
    ids = {node.id: node.id for node in nodes}
    edges = []
    for edge in _json_objects(raw.get(gf["edges"], []), "graph edge"):
        relation_raw = str(edge[ef["relation"]]).lower()
        try:
            relation = Relation(relation_raw)
        except ValueError:
            raise ValueError(f"unknown relation {relation_raw!r}") from None
        source, target = str(edge[ef["source"]]), str(edge[ef["target"]])
        edges.append(CausalEdge(source=ids.get(source, source), target=ids.get(target, target), relation=relation))
    return CausalGraph(graph_id=str(raw.get(gf["graph_id"], "")), kind=kind, nodes=nodes, edges=tuple(edges))


def _select_graph(graphs: Sequence[CausalGraph], preferred: GraphKind) -> CausalGraph | None:
    for graph in graphs:
        if graph.kind is preferred:
            return graph
    return graphs[0] if graphs else None


def _parse_instance(raw: dict, schema: dict, graph_kind: GraphKind) -> QAInstance:
    answer, category = read_label(raw, schema)
    graphs = [_parse_graph(g, schema) for g in _json_objects(raw.get(schema["graphs"], []), "graph")]
    instance = QAInstance(
        instance_id=str(raw.get(schema["instance_id"], "")),
        passage=str(raw.get(schema["passage"], "")),
        question=str(raw.get(schema["question"], "")),
        gold_answer=answer,
        graph=_select_graph(graphs, graph_kind),
        category=category,
    )
    instance.validate()
    return instance


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
    record raises ``DatasetFormatError`` instead. Every yielded
    instance was validated as it was parsed, so downstream code can rely on
    the type invariants without re-checking. Only the ids seen so far are
    held. The file is opened on the first ``next`` and closed when the
    stream is exhausted or closed.
    """
    path = Path(path)
    try:
        # Bytes that are not UTF-8 become lone surrogates, which validation rejects.
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
            instance_id = ""
            try:
                raw = _json_object(json.loads(line), "record")
                instance_id = str(raw.get(schema["instance_id"], ""))
                instance = _parse_instance(raw, schema, graph_kind)
                if instance.instance_id in seen_ids:
                    raise ValueError(f"duplicate instance_id {instance.instance_id!r}")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                reason = str(exc) or exc.__class__.__name__
                if strict:
                    raise DatasetFormatError(f"{path}:{line_no}: {reason}") from exc
                if warn:
                    logger.warning("skipping record at %s:%d: %s", path, line_no, reason)
                yield RejectedRecord(instance_id=_printable(instance_id), reason=reason)
                continue
            seen_ids.add(instance.instance_id)
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
