"""Seeded workload generators for the pipeline benchmark.

Each workload is a dataset file, a demonstration pool and the stage
command lines that run them. The program under test sees only these
generated files; everything is a pure function of the seed.

Gold labels for ``cause`` / ``block`` / ``happen after`` questions come
from the reference reasoning in this file (enables-reachability and
direct blocking), not from ``eventqa.graphcore``, so the oracle's answers
on that subset are checked against an independent answer key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

NOUNS = (
    "storm", "harbor", "market", "council", "bridge", "school", "factory", "river", "crowd", "station",
    "airport", "village", "court", "hospital", "mine", "farm", "union", "army", "festival", "senate",
    "railway", "museum", "border", "clinic", "dam", "forest", "league", "press", "bank", "campus",
)
VERBS = (
    "opens", "closes", "floods", "strikes", "collapses", "expands", "protests", "votes", "burns", "reopens",
    "evacuates", "celebrates", "negotiates", "rebuilds", "halts", "resumes", "announces", "delays", "grows",
    "shrinks", "gathers", "disperses", "signs", "rejects", "elects", "resigns", "arrives", "departs",
    "investigates", "recovers",
)
PLACES = ("the capital", "the coast", "the north", "the valley", "the old town", "the port", "the plains")
# Filler for long chain-of-thought replies; it must never contain the
# standalone words "yes" or "no", which would change the fallback rule.
FILLER = (
    "the", "passage", "states", "that", "event", "happened", "before", "after", "because", "which", "implies",
    "a", "chain", "of", "causes", "linking", "both", "events", "we", "consider", "evidence", "timeline",
    "reported", "officials", "suggests", "order", "sequence", "first", "then", "later", "context", "given",
    "likely", "plausible", "step", "reasoning", "about", "question", "mentions", "described",
)

CATEGORIES = {
    "cause": ("causal", "counterfactual"),
    "block": ("negative", "possible"),
    "after": ("temporal_conflict", "past"),
    "occur": ("occurrence", "existential", "event"),
    "other": ("future", "present", "positive", "unknown"),
}

CONTEXT_LIMIT_QWEN = 2048
STUB_BACKEND = "stub-chat"
REPLY_MIN_BYTES, REPLY_MAX_BYTES = 1024, 64 * 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; ``instances``/``pool`` are the committed sizes."""

    name: str
    instances: int
    pool: int
    nodes: tuple[int, int] | None  # inclusive node-count range; None = graphless
    # (nodes, edges) of one seed-independent shape shared by every demo-pool
    # graph; None draws pool graphs like the instances.
    pool_shape: tuple[int, int] | None
    configs: str
    context_limit: int | None
    backend: str

    @property
    def http(self) -> bool:
        return self.backend == STUB_BACKEND


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("paper-mix", 300, 200, (4, 14), None, "all", None, "oracle"),
        WorkloadSpec(
            "large-graphs", 32, 32, (24, 64), (40, 60),
            "zero-graph,few-graph,cot-graph,zero-tag,few-tag,cot-tag", CONTEXT_LIMIT_QWEN, "oracle",
        ),
        WorkloadSpec("long-cot-http", 160, 60, None, None, "zero-text,few-text,cot-text", None, STUB_BACKEND),
    )
}


def config_count(spec: WorkloadSpec) -> int:
    return 9 if spec.configs == "all" else len(spec.configs.split(","))


# --- reference reasoning (independent of eventqa.graphcore) ---------------------


def enables_reachable(edges: list[tuple[int, int, str]], start: int, goal: int) -> bool:
    if start == goal:
        return True
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for source, target, relation in edges:
            if source == node and relation == "enables" and target not in seen:
                if target == goal:
                    return True
                seen.add(target)
                frontier.append(target)
    return False


def directly_blocks(edges: list[tuple[int, int, str]], source: int, target: int) -> bool:
    return (source, target, "blocks") in edges


# --- generators ------------------------------------------------------------------


def _labels(rng: Random, count: int) -> list[str]:
    combos = rng.sample(range(len(NOUNS) * len(VERBS)), count)
    return [f"{NOUNS[c // len(VERBS)]} {VERBS[c % len(VERBS)]}" for c in combos]


def stratified(rng: Random, count: int) -> list[float]:
    """One quantile from the middle of each of ``count`` equal strata of [0, 1), shuffled.

    Sizes and mixes drawn this way add up to nearly the same total work for
    every seed, so runs with different seeds measure the same amount of work.
    """
    quantiles = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(quantiles)
    return quantiles


def _random_edges(rng: Random, nodes: int, count: int) -> list[tuple[int, int, str]]:
    edges = []
    for _ in range(count):
        source, target = rng.sample(range(nodes), 2)
        edges.append((source, target, "enables" if rng.random() < 0.6 else "blocks"))
    return edges


def _passage(rng: Random, labels: list[str]) -> str:
    return " ".join(f"Reports say the {label} near {rng.choice(PLACES)}." for label in labels)


def _graph_question(rng: Random, labels: list[str], edges, roll: float) -> tuple[str, str, str | None]:
    """Return (kind, question, gold); gold is None where no reference applies.

    ``roll`` picks the kind: 30% cause, 20% block, 18% happen-after (these
    three have reference answers), 16% occur, 16% outside the oracle grammar.
    """
    touched = sorted({e[0] for e in edges} | {e[1] for e in edges})
    blocks = [(s, t) for s, t, r in edges if r == "blocks"]
    if roll < 0.30:
        a, b = rng.sample(touched, 2)
        if rng.random() < 0.5:
            reachable = [(s, t) for s in touched for t in touched if s != t and enables_reachable(edges, s, t)]
            if reachable:
                a, b = rng.choice(reachable)
        gold = "yes" if enables_reachable(edges, a, b) else "no"
        return "cause", f'Did "{labels[a]}" cause "{labels[b]}"?', gold
    if roll < 0.50:
        a, b = rng.choice(blocks) if blocks and rng.random() < 0.5 else rng.sample(touched, 2)
        return "block", f'Did "{labels[a]}" block "{labels[b]}"?', "yes" if directly_blocks(edges, a, b) else "no"
    if roll < 0.68:
        y, x = rng.choice(blocks) if blocks and rng.random() < 0.5 else rng.sample(touched, 2)
        gold = "no" if directly_blocks(edges, y, x) else "yes"
        return "after", f'Did "{labels[x]}" happen after "{labels[y]}"?', gold
    if roll < 0.84:
        return "occur", f'Did "{labels[rng.choice(touched)]}" occur?', None
    a, b = rng.sample(touched, 2)
    return "other", f'Did "{labels[a]}" happen while "{labels[b]}" was underway?', None


def _sized_shape(rng: Random, nodes: tuple[int, int], node_q: float, edge_q: float) -> tuple[int, list]:
    """Node count and n-1 .. 2n edges, placed by the two quantiles."""
    count = nodes[0] + int(node_q * (nodes[1] - nodes[0] + 1))
    return count, _random_edges(rng, count, count - 1 + int(edge_q * (count + 2)))


def _graph_instance(rng: Random, instance_id: str, shape: tuple[int, list], kind_q: float) -> tuple[dict, str | None]:
    count, edges = shape
    labels = _labels(rng, count)
    kind, question, gold = _graph_question(rng, labels, edges, kind_q)
    record = {
        "instance_id": instance_id,
        "passage": _passage(rng, labels),
        "question": question,
        "answer": gold or rng.choice(("yes", "no")),
        "category": rng.choice(CATEGORIES[kind]),
        "graphs": [
            {
                "graph_id": f"{instance_id}-g",
                "kind": "instance",
                "nodes": [{"id": f"n{i}", "label": label} for i, label in enumerate(labels)],
                "edges": [{"source": f"n{s}", "target": f"n{t}", "relation": r} for s, t, r in edges],
            }
        ],
    }
    return record, gold


def _text_instance(rng: Random, instance_id: str, questions: set[str]) -> dict:
    """A graphless instance whose question differs from every one in ``questions``."""
    while True:
        labels = _labels(rng, rng.randint(3, 8))
        a, b = rng.sample(labels, 2)
        question = f'Did "{a}" happen before "{b}"?'
        if question not in questions:
            questions.add(question)
            break
    return {
        "instance_id": instance_id,
        "passage": _passage(rng, labels),
        "question": question,
        "answer": rng.choice(("yes", "no")),
        "category": rng.choice(CATEGORIES["other"] + CATEGORIES["after"]),
        "graphs": [],
    }


@dataclass(frozen=True)
class WorkloadFiles:
    dataset: Path
    demo_pool: Path
    answer_key: dict[str, str]  # instance_id -> reference gold, graph questions only
    reply_plan: Path | None  # the stub server's replies, HTTP workloads only


def generate(spec: WorkloadSpec, seed: int, data_dir: Path, scale: float = 1.0) -> WorkloadFiles:
    """Write the dataset, demo pool and (HTTP only) the stub's replies under ``data_dir``.

    ``scale`` shrinks the committed sizes (tests use it for smoke runs).
    """
    rng = Random(f"{spec.name}|{seed}")
    data_dir.mkdir(parents=True, exist_ok=True)
    answer_key: dict[str, str] = {}
    questions: set[str] = set()
    paths = []
    plan_path = None
    pool_template = None
    if spec.pool_shape is not None:
        nodes, edge_count = spec.pool_shape
        pool_template = nodes, _random_edges(Random(f"pool-shape|{nodes}|{edge_count}"), nodes, edge_count)
    for prefix, size in (("q", spec.instances), ("pool", spec.pool)):
        count = max(4, round(size * scale))
        rows = []
        if spec.nodes is None:
            rows = [_text_instance(rng, f"{prefix}{i:05d}", questions) for i in range(count)]
        else:
            strata = zip(stratified(rng, count), stratified(rng, count), stratified(rng, count))
            for i, (node_q, edge_q, kind_q) in enumerate(strata):
                if prefix == "pool" and pool_template is not None:
                    shape = pool_template
                else:
                    shape = _sized_shape(rng, spec.nodes, node_q, edge_q)
                record, gold = _graph_instance(rng, f"{prefix}{i:05d}", shape, kind_q)
                rows.append(record)
                if gold is not None and prefix == "q":
                    answer_key[record["instance_id"]] = gold
        path = data_dir / ("dataset.ndjson" if prefix == "q" else "demo_pool.ndjson")
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        paths.append(path)
        if prefix == "q" and spec.http:
            plan_path = data_dir / "reply_plan.json"
            plan_path.write_text(json.dumps(reply_plan(rng, [row["question"] for row in rows], spec)))
    return WorkloadFiles(paths[0], paths[1], answer_key, plan_path)


def reply_plan(rng: Random, questions: list[str], spec: WorkloadSpec) -> dict[str, dict[str, dict]]:
    """question -> strategy -> {"text", "label", "refuse"}: what the stub server replies.

    Sizes are 1-64 KB, log-uniform, one per equal stratum. Ranked by size,
    every fourth reply has no closing answer sentence (alternately a stray
    yes/no or none at all) and every twentieth prompt is refused once, so
    each seed gets the same mix at every size.
    """
    strategies = [selector.split("-")[0] for selector in spec.configs.split(",")]
    slots = [(question, strategy) for question in questions for strategy in strategies]
    rng.shuffle(slots)
    offset4, offset20 = rng.randrange(4), rng.randrange(20)
    plan: dict[str, dict[str, dict]] = {question: {} for question in questions}
    for rank, (question, strategy) in enumerate(slots):
        ending = "answer" if rank % 4 != offset4 else ("stray" if rank % 8 < 4 else "none")
        size = int(REPLY_MIN_BYTES * (REPLY_MAX_BYTES / REPLY_MIN_BYTES) ** ((rank + 0.5) / len(slots)))
        text, label = _cot_reply(rng, size, ending)
        plan[question][strategy] = {"text": text, "label": label, "refuse": rank % 20 == offset20}
    return plan


def _cot_reply(rng: Random, size: int, ending: str) -> tuple[str, str | None]:
    """Chain-of-thought-like text of about ``size`` bytes, one ``Therefore,`` restatement per KB."""
    parts = ["Let's think step by step."]
    length = len(parts[0])
    next_restatement = 1024
    while length < size:
        if length >= next_restatement:
            sentence = f"Therefore, the {rng.choice(FILLER)} {rng.choice(FILLER)} seems {rng.choice(FILLER)}."
            next_restatement += 1024
        else:
            sentence = " ".join(rng.choice(FILLER) for _ in range(rng.randint(6, 14))).capitalize() + "."
        parts.append(sentence)
        length += len(sentence) + 1
    label = rng.choice(("yes", "no"))
    if ending == "answer":
        parts.append(f"Therefore, the final answer is: {label}.")
    elif ending == "stray":
        parts.append(f"Perhaps {label}, but the passage is unclear.")
    return " ".join(parts), label if ending == "answer" else None


def backends_config(port: int) -> dict:
    """Backend table pointing ``eventqa run`` at the stub chat server."""
    return {
        STUB_BACKEND: {
            "kind": "http_chat",
            "endpoint": f"http://127.0.0.1:{port}/v1",
            "model_name": "stub-cot",
            "context_limit": 16384,
            "retry_policy": {"max_attempts": 3, "base_backoff": 0.05},
            "request_timeout": 30.0,
        }
    }


STAGES = ("build", "run", "score", "report", "cost")


def stage_argvs(spec: WorkloadSpec, files: WorkloadFiles, out: Path, backends_json: Path | None) -> list[tuple[str, list[str]]]:
    """The five ``eventqa`` command lines of one pipeline pass, in order."""
    dataset = ["--dataset", str(files.dataset)]
    build = ["build", *dataset, "--demo-pool", str(files.demo_pool), "--out", str(out), "--configs", spec.configs]
    if spec.context_limit is not None:
        build += ["--context-limit", str(spec.context_limit)]
    run = ["run", "--out", str(out), "--backend", spec.backend, "--max-concurrency", "2"]
    if backends_json is not None:
        run += ["--backends-config", str(backends_json)]
    argvs = {
        "build": build,
        "run": run,
        "score": ["score", *dataset, "--out", str(out)],
        "report": ["report", "--out", str(out)],
        "cost": ["cost", "--out", str(out), "--model", "gpt-4o-mini"],
    }
    return [(stage, argvs[stage]) for stage in STAGES]
