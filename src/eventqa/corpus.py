"""Dataset loading, validation, and stratified sampling for event-QA corpora.

On-disk format is newline-delimited JSON, one QA instance per line. Each
record carries a passage, a yes/no question, a gold answer, a question
category, and zero or more causal graphs (instance and/or schema). Field
names can be remapped through a schema descriptor so foreign dumps load
without code changes; see ``DEFAULT_SCHEMA`` for the canonical names.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Hashable, Iterable, Sequence

logger = logging.getLogger(__name__)

FULL = "full"
SMALL = "small"
SMALL_SIZE = 1024


class CorpusError(Exception):
    """Base class for dataset-level failures."""


class DatasetFormatError(CorpusError):
    """Raised in strict mode when a record cannot be parsed or validated."""


class EmptySplitError(CorpusError):
    """Raised when an operation requires a non-empty split."""


class SamplingError(CorpusError):
    """Raised when a sample request cannot be satisfied."""


class Relation(str, Enum):
    ENABLES = "enables"
    BLOCKS = "blocks"


class GraphKind(str, Enum):
    INSTANCE = "instance"
    SCHEMA = "schema"


class Answer(str, Enum):
    YES = "yes"
    NO = "no"


class QuestionCategory(str, Enum):
    """The 13 semantic question categories used for per-cluster scoring."""

    CAUSAL = "causal"
    COUNTERFACTUAL = "counterfactual"
    EVENT = "event"
    EXISTENTIAL = "existential"
    FUTURE = "future"
    NEGATIVE = "negative"
    OCCURRENCE = "occurrence"
    PAST = "past"
    POSITIVE = "positive"
    POSSIBLE = "possible"
    PRESENT = "present"
    TEMPORAL_CONFLICT = "temporal_conflict"
    UNKNOWN = "unknown"

    @property
    def original_cluster(self) -> str:
        return _ORIGINAL_CLUSTERS[self]


# Expanded category -> the coarser cluster it was split out from.
_ORIGINAL_CLUSTERS: dict[QuestionCategory, str] = {
    QuestionCategory.CAUSAL: "causal",
    QuestionCategory.COUNTERFACTUAL: "causal (extended)",
    QuestionCategory.EVENT: "event",
    QuestionCategory.EXISTENTIAL: "event (subtype)",
    QuestionCategory.FUTURE: "future",
    QuestionCategory.NEGATIVE: "event (negative polarity)",
    QuestionCategory.OCCURRENCE: "event / temporal",
    QuestionCategory.PAST: "past",
    QuestionCategory.POSITIVE: "event (positive polarity)",
    QuestionCategory.POSSIBLE: "possible",
    QuestionCategory.PRESENT: "present",
    QuestionCategory.TEMPORAL_CONFLICT: "temporal_conflict",
    QuestionCategory.UNKNOWN: "unknown",
}

ALL_CATEGORIES: tuple[QuestionCategory, ...] = tuple(QuestionCategory)


def _check_unicode(text: str, what: str) -> None:
    """Reject text that cannot be written as UTF-8: lone surrogates, from "\\ud800" escapes or undecodable bytes."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{what} holds a lone surrogate or bytes that are not UTF-8") from None


def _printable(text: str) -> str:
    """``text`` with any lone surrogate spelled out as a backslash escape."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


@dataclass(frozen=True)
class EventNode:
    id: str
    label: str


@dataclass(frozen=True)
class CausalEdge:
    source: str
    target: str
    relation: Relation


@dataclass(frozen=True)
class CausalGraph:
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


@dataclass(frozen=True)
class QAInstance:
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
        if not isinstance(self.gold_answer, Answer):
            raise ValueError(f"gold answer must be yes or no, got {self.gold_answer!r}")
        if self.graph is not None:
            self.graph.validate()


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    instances: tuple[QAInstance, ...]

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class RejectedRecord:
    instance_id: str
    reason: str


@dataclass(frozen=True)
class LoadResult:
    split: DatasetSplit
    rejections: tuple[RejectedRecord, ...]


@dataclass(frozen=True)
class AnswerDistribution:
    yes_fraction: float
    no_fraction: float


# Canonical field names; a schema descriptor overrides any subset of these
# with the names used by a particular dump.
DEFAULT_SCHEMA: dict = {
    "instance_id": "instance_id",
    "passage": "passage",
    "question": "question",
    "answer": "answer",
    "category": "category",
    "graphs": "graphs",
    "graph_fields": {"graph_id": "graph_id", "kind": "kind", "nodes": "nodes", "edges": "edges"},
    "node_fields": {"id": "id", "label": "label"},
    "edge_fields": {"source": "source", "target": "target", "relation": "relation"},
}


def load_schema(path: str | Path) -> dict:
    """Read a schema descriptor file and merge it over the defaults."""
    with open(path, encoding="utf-8") as handle:
        overrides = json.load(handle)
    return merge_schema(overrides)


def merge_schema(overrides: dict | None) -> dict:
    schema = {key: (dict(value) if isinstance(value, dict) else value) for key, value in DEFAULT_SCHEMA.items()}
    if overrides:
        for key, value in overrides.items():
            if key not in schema:
                raise DatasetFormatError(f"unknown schema key {key!r}")
            if isinstance(schema[key], dict):
                schema[key].update(value)
            else:
                schema[key] = value
    return schema


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
    edges = []
    for edge in _json_objects(raw.get(gf["edges"], []), "graph edge"):
        relation_raw = str(edge[ef["relation"]]).lower()
        try:
            relation = Relation(relation_raw)
        except ValueError:
            raise ValueError(f"unknown relation {relation_raw!r}") from None
        edges.append(CausalEdge(source=str(edge[ef["source"]]), target=str(edge[ef["target"]]), relation=relation))
    return CausalGraph(graph_id=str(raw.get(gf["graph_id"], "")), kind=kind, nodes=nodes, edges=tuple(edges))


def _select_graph(graphs: Sequence[CausalGraph], preferred: GraphKind) -> CausalGraph | None:
    for graph in graphs:
        if graph.kind is preferred:
            return graph
    return graphs[0] if graphs else None


def _parse_instance(raw: dict, schema: dict, graph_kind: GraphKind) -> QAInstance:
    answer_raw = str(raw.get(schema["answer"], "")).lower()
    try:
        answer = Answer(answer_raw)
    except ValueError:
        raise ValueError(f"gold answer must be yes or no, got {answer_raw!r}") from None

    category_raw = raw.get(schema["category"])
    if category_raw is None or category_raw == "":
        category = QuestionCategory.UNKNOWN
    else:
        try:
            category = QuestionCategory(str(category_raw).lower())
        except ValueError:
            raise ValueError(f"unrecognized category {category_raw!r}") from None

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


def load_dataset(
    path: str | Path,
    schema: dict | None = None,
    *,
    strict: bool = False,
    graph_kind: GraphKind = GraphKind.INSTANCE,
) -> LoadResult:
    """Load a newline-delimited JSON dataset file.

    Malformed records are skipped and reported in the rejection log; with
    ``strict=True`` the first bad record aborts the load instead. Every
    returned instance was validated as it was parsed, so downstream code
    can rely on the type invariants without re-checking.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"dataset file not found: {path}")
    schema = merge_schema(schema)

    instances: list[QAInstance] = []
    rejections: list[RejectedRecord] = []
    seen_ids: set[str] = set()
    # Bytes that are not UTF-8 become lone surrogates, which validation rejects.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
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
                logger.warning("skipping record at %s:%d: %s", path, line_no, reason)
                rejections.append(RejectedRecord(instance_id=_printable(instance_id), reason=reason))
                continue
            seen_ids.add(instance.instance_id)
            instances.append(instance)

    return LoadResult(split=DatasetSplit(name=FULL, instances=tuple(instances)), rejections=tuple(rejections))


def answer_distribution(split: DatasetSplit) -> AnswerDistribution:
    """Fraction of yes and no gold answers; raises on an empty split."""
    if not split.instances:
        raise EmptySplitError("cannot compute answer distribution of an empty split")
    total = len(split.instances)
    yes = sum(1 for instance in split.instances if instance.gold_answer is Answer.YES)
    return AnswerDistribution(yes_fraction=yes / total, no_fraction=(total - yes) / total)


def by_category(instance: QAInstance) -> Hashable:
    """Default stratification key: the question category."""
    return instance.category


def _allocate_quotas(sizes: list[int], total: int) -> list[int]:
    """Floor-proportional allocation with largest-remainder correction.

    Quotas are computed with exact rational arithmetic so remainder ties
    are broken deterministically (by stratum position). Strata never
    receive more than their population; surplus spills to the strata with
    the largest remainders that still have capacity.
    """
    population = sum(sizes)
    quotas = [Fraction(total * size, population) for size in sizes]
    counts = [int(quota) for quota in quotas]
    remainders = [quota - count for quota, count in zip(quotas, counts)]
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


def stratified_sample(
    split: DatasetSplit,
    size: int,
    seed: int,
    key: Callable[[QAInstance], Hashable] = by_category,
    *,
    expected_strata: Iterable[Hashable] | None = None,
    name: str = SMALL,
) -> DatasetSplit:
    """Draw a proportional stratified sample of exactly ``size`` instances.

    Per-stratum quotas use floor-proportional allocation with largest
    remainder correction, so each stratum count is within one of its exact
    proportional share. Selection is driven solely by ``seed``; the output
    preserves the original split order, so sampling the whole population
    returns it unchanged. Expected strata absent from the data are warned
    about and their share reallocated to the populated strata.
    """
    if size > len(split.instances):
        raise SamplingError(f"requested {size} instances from a split of {len(split.instances)}")
    if size < 0:
        raise SamplingError("sample size must be non-negative")

    strata: dict[Hashable, list[int]] = {}
    for index, instance in enumerate(split.instances):
        strata.setdefault(key(instance), []).append(index)

    if expected_strata is not None:
        for stratum_key in expected_strata:
            if stratum_key not in strata:
                logger.warning("stratum %r is empty; its share goes to the remaining strata", stratum_key)

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

    instances = tuple(split.instances[i] for i in sorted(chosen))
    return DatasetSplit(name=name, instances=instances)
