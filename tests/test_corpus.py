from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from eventqa.corpus import (
    DatasetFormatError,
    GraphKind,
    QAInstance,
    QuestionCategory,
    RejectedRecord,
    SamplingError,
    _allocate_quotas,
    read_dataset,
)
from eventqa.vocab import DEFAULT_SCHEMA, SCHEMA, SECTION_HEADERS, Answer, _id, load_schema, read_label, read_labels


def _write(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _record(instance_id="a", **overrides):
    base = helpers.instance_to_record(helpers.synthetic_instance(0, random.Random(3)))
    base["instance_id"] = instance_id
    base.update(overrides)
    return base


def _load(path, schema=None, **options) -> tuple[list[QAInstance], list[RejectedRecord]]:
    """The instances and the rejections that ``read_dataset`` yields for ``path``, collected apart."""
    records = list(read_dataset(path, schema, **options))
    return [r for r in records if type(r) is QAInstance], [r for r in records if type(r) is RejectedRecord]


def _int_id_graph():
    """A graph whose node ids and edge endpoints are JSON numbers, which the loader reads as strings."""
    return {
        "graph_id": "numbered",
        "kind": "instance",
        "nodes": [{"id": 100 + k, "label": f"step {k}"} for k in range(3)],
        "edges": [
            {"source": 100, "target": 101, "relation": "enables"},
            {"source": 101, "target": 102, "relation": "blocks"},
        ],
    }


class TestLoadDataset:
    def test_well_formed_records_all_load(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("a"), _record("b"), _record("c")])
        instances, rejections = _load(path)
        assert [i.instance_id for i in instances] == ["a", "b", "c"]
        assert rejections == []

    def test_edges_share_the_id_strings_of_their_nodes(self, tmp_path):
        """An edge holds its endpoints' own id objects, not second copies from the JSON decoder."""
        path = tmp_path / "data.ndjson"
        _write(path, [_record(f"i{k}") for k in range(5)] + [_record("int-ids", graphs=[_int_id_graph()])])
        instances, _ = _load(path)
        assert len(instances) == 6
        for instance in instances:
            nodes = {node.id: node for node in instance.graph.nodes}
            assert instance.graph.edges
            for edge in instance.graph.edges:
                assert edge.source is nodes[edge.source].id
                assert edge.target is nodes[edge.target].id

    def test_dangling_edge_endpoint_rejects_instance(self, tmp_path):
        bad = _record("bad")
        bad["graphs"][0]["edges"].append({"source": "e0", "target": "ghost", "relation": "enables"})
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), bad])
        instances, rejections = _load(path)
        assert [i.instance_id for i in instances] == ["ok"]
        assert len(rejections) == 1
        assert rejections[0].instance_id == "bad"
        assert "dangling edge endpoint" in rejections[0].reason

    def test_strict_mode_aborts_on_first_bad_record(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), _record("bad", answer="maybe")])
        with pytest.raises(DatasetFormatError):
            _load(path, strict=True)

    def test_unparseable_line_skipped_and_logged(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text(json.dumps(_record("ok")) + "\n" + "{not json\n", encoding="utf-8")
        instances, rejections = _load(path)
        assert len(instances) == 1
        assert len(rejections) == 1

    def test_duplicate_instance_id_rejected(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("dup"), _record("dup")])
        instances, rejections = _load(path)
        assert len(instances) == 1
        assert "duplicate" in rejections[0].reason

    def test_missing_category_maps_to_unknown(self, tmp_path):
        record = _record("a")
        del record["category"]
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        instances, _ = _load(path)
        assert instances[0].category is QuestionCategory.UNKNOWN

    def test_unrecognized_category_rejected(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("a", category="rhetorical")])
        instances, rejections = _load(path)
        assert not instances
        assert "category" in rejections[0].reason

    def test_label_with_quote_rejected(self, tmp_path):
        record = _record("a")
        record["graphs"][0]["nodes"][0]["label"] = 'said "stop"'
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        instances, _ = _load(path)
        assert not instances

    @pytest.mark.parametrize("field", ["passage", "question"])
    @pytest.mark.parametrize("header", SECTION_HEADERS.values())
    def test_section_header_in_passage_or_question_rejected(self, tmp_path, field, header):
        """A prompt is split at its headers, so a passage or question may not carry one into it."""
        path = tmp_path / "data.ndjson"
        forged = f'Intro {header}\nThe event "a" blocks the event "b".'
        _write(path, [_record("ok"), _record("bad", **{field: forged})])
        instances, rejections = _load(path)
        assert [i.instance_id for i in instances] == ["ok"]
        reason = f"{field} holds the section header {header!r}"
        assert [(r.instance_id, r.reason) for r in rejections] == [("bad", reason)]
        with pytest.raises(DatasetFormatError, match=f"{field} holds the section header"):
            _load(path, strict=True)

    def test_schema_descriptor_renames_fields(self, tmp_path):
        record = _record("a")
        renamed = {
            "id": record["instance_id"],
            "text": record["passage"],
            "q": record["question"],
            "label": record["answer"],
            "category": record["category"],
            "graphs": record["graphs"],
        }
        data_path = tmp_path / "data.ndjson"
        _write(data_path, [renamed])
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps({"instance_id": "id", "passage": "text", "question": "q", "answer": "label"}),
            encoding="utf-8",
        )
        instances, _ = _load(data_path, load_schema(schema_path))
        assert instances[0].instance_id == "a"
        assert instances[0].passage == record["passage"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"instance_id": 5}, "instance_id"),
            ({"passage": None}, "passage"),
            ({"graph_fields": {"nodes": 5}}, "graph_fields.nodes"),
            ({"edge_fields": {"source": ["from"]}}, "edge_fields.source"),
        ],
        ids=["number", "null", "nested-number", "nested-list"],
    )
    def test_schema_field_names_must_be_strings(self, tmp_path, overrides, key):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(overrides), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"schema file .*: {key} must be a string"):
            load_schema(path)

    def test_schema_graph_selection_prefers_requested_kind(self, tmp_path):
        record = _record("a")
        instance_graph = record["graphs"][0]
        nodes = [dict(instance_graph["nodes"][0], label="schema step"), *instance_graph["nodes"][1:]]
        schema_graph = dict(instance_graph, kind="schema", nodes=nodes)
        record["graphs"] = [instance_graph, schema_graph]
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        by_default = _load(path)[0][0]
        by_schema = _load(path, graph_kind=GraphKind.SCHEMA)[0][0]
        assert by_default.graph.nodes[0].label == instance_graph["nodes"][0]["label"]
        assert by_schema.graph.nodes[0].label == "schema step"

    @pytest.mark.parametrize(
        "fault, reason",
        [
            ({"edges": [{"source": "s", "target": "ghost", "relation": "enables"}]}, "dangling edge endpoint"),
            ({"edges": [{"source": "s", "target": "s", "relation": "enables"}]}, "self-loop on node 's'"),
            ({"edges": [{"source": "s", "target": "t", "relation": "causes"}]}, "unknown relation 'causes'"),
            ({"nodes": [{"label": "no id"}]}, "node id must be"),
        ],
        ids=["dangling", "self-loop", "relation", "node-without-id"],
    )
    def test_only_the_selected_graph_is_read(self, tmp_path, fault, reason):
        """A fault in a graph the build does not select costs nothing; selected, it rejects the record."""
        schema_graph = {"kind": "schema", "nodes": [{"id": "s", "label": "s"}, {"id": "t", "label": "t"}], "edges": []}
        record = _record("a")
        record["graphs"].append(dict(schema_graph, **fault))
        path = tmp_path / "data.ndjson"
        _write(path, [record])
        (instance,), [] = _load(path)
        assert [node.id for node in instance.graph.nodes] == [node["id"] for node in record["graphs"][0]["nodes"]]
        [], (rejection,) = _load(path, graph_kind=GraphKind.SCHEMA)
        assert rejection.reason.startswith(reason)

    def test_self_loop_rejected(self, tmp_path):
        record = _record("bad")
        record["graphs"][0] = {"kind": "instance", "nodes": [{"id": "x", "label": "x"}], "edges": []}
        record["graphs"][0]["edges"].append({"source": "x", "target": "x", "relation": "enables"})
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), record])
        instances, rejections = _load(path)
        assert [i.instance_id for i in instances] == ["ok"]
        assert [(r.instance_id, r.reason) for r in rejections] == [("bad", "self-loop on node 'x'")]


def _set_node_id(record: dict, value) -> dict:
    """``record`` with its first node's id, and every edge endpoint naming that node, set to ``value``."""
    graph = record["graphs"][0]
    old = graph["nodes"][0]["id"]
    graph["nodes"][0]["id"] = value
    touched = 0
    for edge in graph["edges"]:
        for end in ("source", "target"):
            if edge[end] == old:
                edge[end] = value
                touched += 1
    assert touched, "no edge names the first node"
    return record


def _set_label(record: dict, value) -> dict:
    record["graphs"][0]["nodes"][0]["label"] = value
    return record


_TEXT_RULE = "a non-empty string that UTF-8 can encode"


class TestRecordValues:
    """Each value is read as the type its field holds; a JSON null, bool, array or object is never coerced to text."""

    @pytest.mark.parametrize("value", [None, True, ["Did it?"], {"a": 1}], ids=["null", "true", "list", "object"])
    @pytest.mark.parametrize(
        "field, setter, described",
        [
            ("instance_id", lambda r, v: dict(r, instance_id=v), f"{_TEXT_RULE} or an integer"),
            ("passage", lambda r, v: dict(r, passage=v), _TEXT_RULE),
            ("question", lambda r, v: dict(r, question=v), _TEXT_RULE),
            ("label of node 'e0'", _set_label, _TEXT_RULE),
            ("node id", _set_node_id, f"{_TEXT_RULE} or an integer"),
        ],
        ids=["instance-id", "passage", "question", "node-label", "node-id"],
    )
    def test_a_value_of_the_wrong_type_is_rejected(self, tmp_path, value, field, setter, described):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("ok"), setter(_record("bad"), value)])
        instances, rejections = _load(path)
        assert [i.instance_id for i in instances] == ["ok"]
        logged_id = "" if field == "instance_id" else "bad"
        reason = f"{field} must be {described}, got {value!r}"
        assert [(r.instance_id, r.reason) for r in rejections] == [(logged_id, reason)]
        with pytest.raises(DatasetFormatError, match=f"{field} must be"):
            _load(path, strict=True)

    @pytest.mark.parametrize("value", ["", "caf\ud800"], ids=["empty", "lone-surrogate"])
    def test_text_must_be_non_empty_and_encodable(self, tmp_path, value):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("bad", passage=value)])
        [], (rejection,) = _load(path)
        assert rejection.reason == f"passage must be {_TEXT_RULE}, got {value!r}"
        rejection.reason.encode("utf-8")

    def test_integer_ids_are_read_as_decimal_strings(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record(7, graphs=[_int_id_graph()])])
        (instance,), [] = _load(path)
        assert instance.instance_id == "7"
        assert [node.id for node in instance.graph.nodes] == ["100", "101", "102"]

    def test_a_long_value_is_cut_in_the_reason(self, tmp_path):
        path = tmp_path / "data.ndjson"
        _write(path, [_record("bad", question=["x" * 500])])
        [], (rejection,) = _load(path)
        assert rejection.reason.startswith("question must be ")
        assert "..." in rejection.reason and len(rejection.reason) < 250

    @pytest.mark.parametrize("raw_id, logged", [("bad", "bad"), (12, "12"), (False, ""), (1.5, ""), ([1], "")])
    def test_the_rejection_log_names_only_a_string_or_integer_id(self, tmp_path, raw_id, logged):
        path = tmp_path / "data.ndjson"
        _write(path, [_record(raw_id, answer="maybe")])
        [], (rejection,) = _load(path)
        assert rejection.instance_id == logged


class TestCategoryTaxonomy:
    def test_thirteen_categories(self):
        assert len(QuestionCategory) == 13


def _outcome(allocate, sizes, total):
    """The counts, or the type of the exception raised instead: the two must fail alike, too."""
    try:
        return allocate(list(sizes), total)
    except (SamplingError, ZeroDivisionError) as exc:
        return type(exc)


class TestStratifiedSample:
    def test_two_equal_categories_split_evenly(self):
        rng = random.Random(5)
        instances = [
            helpers.synthetic_instance(index, rng)._replace(
                category=QuestionCategory.CAUSAL if index < 50 else QuestionCategory.PAST,
            )
            for index in range(100)
        ]
        sample = helpers.stratified_sample(instances, 10, seed=7)
        counts = Counter(i.category for i in sample)
        assert counts[QuestionCategory.CAUSAL] == 5
        assert counts[QuestionCategory.PAST] == 5

    def test_size_equal_to_population_returns_whole_split_in_order(self, synthetic_split):
        sample = helpers.stratified_sample(synthetic_split, len(synthetic_split), seed=3)
        assert sample == synthetic_split

    def test_deterministic_for_fixed_seed(self, synthetic_split):
        first = helpers.stratified_sample(synthetic_split, 40, seed=11)
        second = helpers.stratified_sample(synthetic_split, 40, seed=11)
        assert first == second
        different = helpers.stratified_sample(synthetic_split, 40, seed=12)
        assert first != different  # overwhelmingly likely for this population

    def test_oversized_request_fails(self, synthetic_split):
        with pytest.raises(SamplingError):
            helpers.stratified_sample(synthetic_split, len(synthetic_split) + 1, seed=1)

    @settings(max_examples=40)
    @given(size=st.integers(1, 130), seed=st.integers(0, 10))
    def test_quotas_within_one_of_proportional(self, size, seed):
        split = helpers.synthetic_split(130, seed=7)
        sample = helpers.stratified_sample(split, size, seed=seed)
        assert len(sample) == size
        population = Counter(i.category for i in split)
        counts = Counter(i.category for i in sample)
        for category, members in population.items():
            exact = Fraction(size * members, len(split))
            assert abs(Fraction(counts[category]) - exact) <= 1

    @settings(max_examples=300)
    @given(sizes=st.lists(st.integers(0, 12), max_size=8), data=st.data())
    @example(sizes=[], data=None)  # an empty split
    @example(sizes=[3, 3, 3], data=None)  # three-way remainder tie
    @example(sizes=[0, 1, 1, 1], data=None)  # an empty stratum ties at remainder 0
    @example(sizes=[0, 0], data=None)  # no population at all
    def test_integer_quotas_match_fraction_reference(self, sizes, data):
        population = sum(sizes)
        totals = range(population + 2) if data is None else [data.draw(st.integers(0, population + 1))]
        for total in totals:
            assert _outcome(_allocate_quotas, sizes, total) == _outcome(
                helpers.allocate_quotas_reference, sizes, total
            ), (sizes, total)

    def test_sample_ids_are_a_subset_in_stable_order(self, synthetic_split):
        sample = helpers.stratified_sample(synthetic_split, 25, seed=2)
        positions = [synthetic_split.index(i) for i in sample]
        assert positions == sorted(positions)


# --- fuzzing the loader ---------------------------------------------------------

# Text that sometimes holds lone surrogates, which JSON can spell as "\ud800".
_TEXT = st.text(max_size=6) | st.text(
    st.characters(min_codepoint=0xD7F0, max_codepoint=0xE010, exclude_categories=()), max_size=3
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_REMAPPED = {
    "instance_id": "uid",
    "passage": "text",
    "answer": "label",
    "graphs": "structures",
    "graph_fields": {"kind": "type", "nodes": "vertices"},
    "node_fields": {"id": "key"},
    "edge_fields": {"relation": "rel", "source": "from"},
}
_REMAPPED_SCHEMA = SCHEMA.read(_REMAPPED, required=False)


def _anything_or(*strategies):
    return st.one_of(*strategies, _JSON)


def _near_records(schema):
    """Records shaped like the schema, whose every field may be missing, mistyped or out of range."""
    nf, ef, gf = schema["node_fields"], schema["edge_fields"], schema["graph_fields"]
    node_ids = st.sampled_from(["a", "b", "c", ""])
    node = _anything_or(
        st.fixed_dictionaries({}, optional={nf["id"]: _anything_or(node_ids), nf["label"]: _anything_or(_TEXT)})
    )
    edge = _anything_or(
        st.fixed_dictionaries(
            {},
            optional={
                ef["source"]: _anything_or(node_ids),
                ef["target"]: _anything_or(node_ids),
                ef["relation"]: _anything_or(st.sampled_from(["enables", "BLOCKS", "causes"])),
            },
        )
    )
    graph = _anything_or(
        st.fixed_dictionaries(
            {},
            optional={
                gf["graph_id"]: _JSON,
                gf["kind"]: _anything_or(st.sampled_from(["instance", "Schema", "other"])),
                gf["nodes"]: _anything_or(st.lists(node, max_size=4)),
                gf["edges"]: _anything_or(st.lists(edge, max_size=4)),
            },
        )
    )
    return st.fixed_dictionaries(
        {},
        optional={
            schema["instance_id"]: _anything_or(st.sampled_from(["x", "y", "z"])),
            schema["passage"]: _anything_or(_TEXT),
            schema["question"]: _anything_or(_TEXT),
            schema["answer"]: _anything_or(st.sampled_from(["yes", "No", "maybe"])),
            schema["category"]: _anything_or(st.sampled_from([c.value for c in QuestionCategory] + ["CAUSAL", "other"])),
            schema["graphs"]: _anything_or(st.lists(graph, max_size=3)),
        },
    )


@st.composite
def _dataset_lines(draw):
    """(schema, dataset lines): JSON of any shape, near-records, and text that is not JSON."""
    schema = draw(st.sampled_from([DEFAULT_SCHEMA, _REMAPPED_SCHEMA]))
    line = st.one_of(
        _near_records(schema).map(json.dumps),
        _JSON.map(json.dumps),
        st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=20),
    )
    return schema, draw(st.lists(line, min_size=1, max_size=6))


def _source_values(raw: dict, schema: dict) -> tuple:
    """A record's id (an integer as its digits), passage, question and the labels of the graph selected by default."""
    gf, nf = schema["graph_fields"], schema["node_fields"]
    graphs = raw.get(schema["graphs"], [])
    kinds = [graph.get(gf["kind"], "instance").lower() for graph in graphs]
    chosen = graphs[kinds.index("instance") if "instance" in kinds else 0] if graphs else None
    labels = None if chosen is None else [node[nf["label"]] for node in chosen.get(gf["nodes"], [])]
    raw_id = raw[schema["instance_id"]]
    instance_id = str(raw_id) if type(raw_id) in (str, int) else raw_id
    return instance_id, raw[schema["passage"]], raw[schema["question"]], labels


def _loaded_values(instance: QAInstance) -> tuple:
    labels = None if instance.graph is None else [node.label for node in instance.graph.nodes]
    return instance.instance_id, instance.passage, instance.question, labels


class TestLoadDatasetFuzz:
    @settings(max_examples=200, deadline=None)
    @given(case=_dataset_lines())
    def test_every_line_becomes_an_instance_or_a_rejection(self, tmp_path_factory, case):
        schema, lines = case
        path = tmp_path_factory.mktemp("fuzz") / "data.ndjson"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        instances, rejections = result = _load(path, schema)
        records, lines = list(read_dataset(path, schema)), [line for line in lines if line.strip()]
        assert len(records) == len(lines)
        # Whatever loads can be written out: instances into prompts, rejections into their log.
        for instance in instances:
            labels = [node.label for node in instance.graph.nodes] if instance.graph else []
            "".join([instance.instance_id, instance.passage, instance.question, *labels]).encode("utf-8")
        # An instance's text is its line's JSON strings as they are, and its id a string or an integer's digits.
        for record, line in zip(records, lines):
            if type(record) is QAInstance:
                assert _source_values(json.loads(line), schema) == _loaded_values(record)
        for rejection in rejections:
            (rejection.instance_id + rejection.reason).encode("utf-8")
        try:
            strict = _load(path, schema, strict=True)
        except DatasetFormatError:
            assert rejections
        else:
            assert strict == result

    @pytest.mark.parametrize(
        "line",
        [
            b"null",
            b"[" * 100_000 + b"]" * 100_000,
            json.dumps(_record("MARK")).encode().replace(b"MARK", b"x\xffy"),
            json.dumps(_record("c", passage="caf\ud800 closed.")).encode(),
        ],
        ids=["not-an-object", "nested-too-deep", "not-utf8", "lone-surrogate"],
    )
    def test_hostile_line_is_rejected(self, tmp_path, line):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b"\n".join([json.dumps(_record("a")).encode(), line, json.dumps(_record("b")).encode()]) + b"\n")
        instances, [rejection] = _load(path)
        assert [instance.instance_id for instance in instances] == ["a", "b"]
        (rejection.instance_id + rejection.reason).encode("utf-8")


# --- labels without graphs --------------------------------------------------------


def _in_schema(record: dict, schema: dict) -> dict:
    """A record with default field names, renamed to ``schema``'s."""
    gf, nf, ef = schema["graph_fields"], schema["node_fields"], schema["edge_fields"]
    graphs = [
        {
            gf["graph_id"]: graph["graph_id"],
            gf["kind"]: graph["kind"],
            gf["nodes"]: [{nf[key]: value for key, value in node.items()} for node in graph["nodes"]],
            gf["edges"]: [{ef[key]: value for key, value in edge.items()} for edge in graph["edges"]],
        }
        for graph in record["graphs"]
    ]
    return {schema[key]: graphs if key == "graphs" else value for key, value in record.items()}


@st.composite
def _labelled_lines(draw):
    """``_dataset_lines`` with well-formed records mixed in, so repeated ids also reach instances that load.

    Their ids include JSON values that ``build`` refuses as ids but whose Python spelling is an id it keeps.
    """
    schema, lines = draw(_dataset_lines())
    valid = st.builds(
        lambda instance_id, answer, category: json.dumps(
            _in_schema(_record(instance_id, answer=answer, category=category), schema)
        ),
        st.sampled_from(["x", "y", "True", "None", "7", True, None, 7, 7.0]),
        st.sampled_from(["yes", "NO"]),
        st.sampled_from(["causal", "Past", ""]),
    )
    return schema, draw(st.permutations(lines + draw(st.lists(valid, max_size=4))))


class TestReadLabels:
    @settings(max_examples=200, deadline=None)
    @given(case=_labelled_lines())
    def test_labels_agree_with_the_full_load(self, tmp_path_factory, case):
        schema, lines = case
        path = tmp_path_factory.mktemp("labels") / "data.ndjson"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # Every label each id is given by a record whose JSON, id (as build reads it), answer and category parse.
        given_labels: dict = {}
        for line in lines:
            try:
                raw = json.loads(line)
                if isinstance(raw, dict):
                    instance_id = _id(raw.get(schema["instance_id"]), "instance_id")
                    given_labels.setdefault(instance_id, set()).add(read_label(raw, schema))
            except (ValueError, RecursionError):
                pass

        labels = read_labels(path, schema)
        assert {instance_id for instance_id, label in labels.items() if label is None} == {
            instance_id for instance_id, given in given_labels.items() if len(given) > 1
        }
        for instance in _load(path, schema)[0]:
            if len(given_labels[instance.instance_id]) == 1:
                assert labels[instance.instance_id] == (instance.gold_answer, instance.category)

    def test_an_unreadable_record_gives_no_label(self, tmp_path):
        path = tmp_path / "data.ndjson"
        lines = [
            json.dumps(_record("a", answer="Yes", category="")),
            "{not json",
            json.dumps(_record("b", answer="maybe")),
            json.dumps(_record("c", category="other")),
            json.dumps(_record("d", graphs=[{"nodes": "none"}])),
            json.dumps(_record(True, answer="no")),  # build refuses a ``true`` id, so it labels no "True"
            json.dumps(_record("True", answer="yes", category="past")),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_labels(path) == {
            "a": (Answer.YES, QuestionCategory.UNKNOWN),
            "d": (Answer(_record("d")["answer"]), QuestionCategory(_record("d")["category"])),
            "True": (Answer.YES, QuestionCategory.PAST),
        }
