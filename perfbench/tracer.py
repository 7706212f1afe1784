"""Span tracing of the eventqa layers, installed from outside the package.

``install`` replaces every module binding of each public function of the
layer modules with a wrapper that records a span: id, name, start, end,
parent span, thread and an optional per-call detail. ``cli.verbalize_graph``,
``promptkit.verbalize_graph`` and ``graphcore.verbalize_graph`` are three
bindings of one function and all get the same wrapper. Work submitted to
``backends.ThreadPoolExecutor`` is parented to the span that submitted it,
so ``complete`` spans on worker threads hang under ``run_batch``.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import statistics
import threading
from bisect import bisect_right
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

LAYERS = ("corpus", "graphcore", "promptkit", "backends", "extract", "manifest", "evalkit", "costmodel")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    detail: object = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: int | None):
        """Run a block on this thread as if ``parent`` were its open span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [] if parent is None else [parent]
        try:
            yield
        finally:
            stack[:] = saved

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn: Callable, detail: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``detail(args, result, exc)`` adds per-call data."""
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                stack.pop()
                info = detail(args, result, exc) if detail is not None else None
                spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), info))

        return wrapper

    def executor_class(self) -> type[ThreadPoolExecutor]:
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def adopted():
                    with tracer.adopt(parent):
                        return fn(*args, **kwargs)

                return super().submit(adopted)

        return TracedExecutor


# --- per-call details -------------------------------------------------------------


def _graph_detail(args, result, exc):
    graph = args[0]
    return len(graph.nodes), hash(graph)


def _truncate_detail(args, result, exc):
    return result is not None and result.truncation_applied


def _complete_detail(args, result, exc):
    if exc is not None:
        return ("failed",)
    return args[0].kind.value, result.attempt_count, result.flags


def _extract_detail(args, result, exc):
    return len(args[0].encode("utf-8")), result.method.value if result is not None else None


def _file_size_detail(args, result, exc):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _loaded_detail(args, result, exc):
    return len(result.split.instances) if result is not None else 0


DETAILS = {
    "graphcore.verbalize_graph": _graph_detail,
    "promptkit.truncate_to_budget": _truncate_detail,
    "backends.complete": _complete_detail,
    "extract.extract_answer": _extract_detail,
    "manifest.write_ndjson": _file_size_detail,
    "manifest.read_ndjson": _file_size_detail,
    "corpus.load_dataset": _loaded_detail,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every binding of every public layer function; return an undo callable."""
    modules = {layer: importlib.import_module(f"eventqa.{layer}") for layer in LAYERS}
    modules["cli"] = importlib.import_module("eventqa.cli")
    wrappers: dict[int, Callable] = {}
    for layer in LAYERS:
        module = modules[layer]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, DETAILS.get(name))

    undo: list[tuple[object, str, object]] = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)
    backends = modules["backends"]
    undo.append((backends, "ThreadPoolExecutor", backends.ThreadPoolExecutor))
    backends.ThreadPoolExecutor = tracer.executor_class()

    def restore() -> None:
        for module, attr, original in undo:
            setattr(module, attr, original)

    return restore


# --- arithmetic ---------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans, on any thread."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start) - covered(children[span.id], span.start, span.end) for span in spans}


TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, nearest-rank value) for the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ranks = {p: math.ceil(round(n * p / 100, 6)) for p in TAIL_PERCENTILES}
    eligible = [p for p in TAIL_PERCENTILES if n - ranks[p] >= 10]
    if not eligible:
        return None
    p = eligible[-1]
    return p, sorted(samples)[ranks[p] - 1]


# Lower bounds of the scaling buckets; each bucket runs up to the next bound,
# the last one is open above.
VERBALIZE_NODE_BOUNDS = (4, 8, 16, 32, 48)
EXTRACT_KB_BOUNDS = (0, 1, 2, 4, 8, 16, 32)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], prompts: int) -> tuple[dict[str, float], dict[str, list]]:
    """Per-layer metrics and the two scaling tables from one traced pipeline pass."""
    self_s = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_sum(name: str) -> float:
        return sum(self_s[span.id] for span in by_name[name])

    m: dict[str, float] = {}
    for name in (
        "corpus.load_dataset", "graphcore.verbalize_graph", "graphcore.topological_order",
        "graphcore.oracle_answer", "promptkit.select_demonstrations", "promptkit.assemble_prompt",
        "promptkit.count_tokens", "promptkit.truncate_to_budget", "backends.complete",
        "extract.extract_answer", "manifest.write_ndjson", "manifest.read_ndjson", "evalkit.score",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = self_sum(name)
    for name in (
        "graphcore.graph_from_sentences", "backends.run_batch", "evalkit.emit_report", "evalkit.emit_plot_data",
        "costmodel.project_run_cost", "costmodel.load_pricing",
    ):
        m[f"{name}.s"] = self_sum(name)

    m["corpus.instances_loaded"] = sum(span.detail for span in by_name["corpus.load_dataset"])

    verbalized = by_name["graphcore.verbalize_graph"]
    m["graphcore.verbalize_graph.distinct_frac"] = _ratio(len({s.detail[1] for s in verbalized}), len(verbalized))

    m["promptkit.count_tokens.calls_per_prompt"] = _ratio(calls("promptkit.count_tokens"), prompts)
    truncated = by_name["promptkit.truncate_to_budget"]
    m["promptkit.truncate_to_budget.applied_frac"] = _ratio(sum(bool(s.detail) for s in truncated), len(truncated))

    completes = by_name["backends.complete"]
    completion_spans = defaultdict(list)
    for s in completes:
        completion_spans[s.parent].append((s.start, s.end))
    m["backends.run_batch.self_s"] = sum(
        (s.end - s.start) - covered(completion_spans[s.id], s.start, s.end) for s in by_name["backends.run_batch"]
    )
    latencies = [(s.end - s.start) * 1000 for s in completes]
    tail = tail_percentile(latencies)
    m["backends.complete.p50_ms"] = statistics.median(latencies) if latencies else 0.0
    m["backends.complete.tail_pct"], m["backends.complete.tail_ms"] = tail if tail else (0.0, 0.0)
    done = [s.detail for s in completes if s.detail[0] != "failed"]
    m["backends.complete.failed"] = len(completes) - len(done)
    m["backends.retries"] = sum(d[1] - 1 for d in done)
    oracle = [d for d in done if d[0] == "oracle"]
    m["backends.oracle.unparsed_frac"] = _ratio(sum("unparsed" in d[2] for d in oracle), len(oracle))
    m["backends.oracle.no_graph_frac"] = _ratio(sum("no_graph" in d[2] for d in oracle), len(oracle))

    extracts = by_name["extract.extract_answer"]
    m["extract.extract_answer.max_ms"] = max(((s.end - s.start) * 1000 for s in extracts), default=0.0)
    m["extract.bytes"] = sum(s.detail[0] for s in extracts)
    for method, key in (("canonical_regex", "canonical"), ("fallback_first_token", "fallback"), ("none", "none")):
        m[f"extract.{key}_frac"] = _ratio(sum(s.detail[1] == method for s in extracts), len(extracts))

    for name in ("manifest.write_ndjson", "manifest.read_ndjson"):
        m[f"{name}.bytes"] = sum(s.detail for s in by_name[name])

    for stage in ("build", "run", "score"):
        m[f"cli.{stage}.self_s"] = self_sum(f"cli.{stage}")
    for stage in ("report", "cost"):
        m[f"cli.{stage}.s"] = sum(s.end - s.start for s in by_name[f"cli.{stage}"])

    # Growth exponent of per-call time in input size (nodes; output bytes):
    # 1 is linear. The bucket tables show the same sweep in detail.
    m["scaling.verbalize_graph.exponent"] = loglog_slope([(s.detail[0], s.end - s.start) for s in verbalized])
    m["scaling.extract_answer.exponent"] = loglog_slope([(s.detail[0], s.end - s.start) for s in extracts])
    scaling = {
        "verbalize_graph": _bucketed(((s.detail[0], s) for s in verbalized), VERBALIZE_NODE_BOUNDS, "v", 1),
        "extract_answer": _bucketed(((s.detail[0] / 1024, s) for s in extracts), EXTRACT_KB_BOUNDS, "kb", 0),
    }
    return m, scaling


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) on log(size); 0 without two distinct sizes."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in logs}) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in logs)
    mean_y = statistics.fmean(y for _, y in logs)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in logs)
    return covariance / sum((x - mean_x) ** 2 for x, _ in logs)


def bucket_labels(bounds: tuple[int, ...], prefix: str, inclusive_gap: int) -> list[str]:
    """``v04-07`` for nodes 4..7 (``inclusive_gap=1``), ``kb01-02`` for 1 KB <= size < 2 KB."""
    labels = [f"{prefix}{lo:02d}-{hi - inclusive_gap:02d}" for lo, hi in zip(bounds, bounds[1:])]
    return labels + [f"{prefix}{bounds[-1]:02d}-up"]


def _bucketed(keyed, bounds: tuple[int, ...], prefix: str, inclusive_gap: int) -> list[list]:
    """[label, calls, mean inclusive ms] per bucket; keys below the first bound are left out."""
    sums = [[0, 0.0] for _ in bounds]
    for key, span in keyed:
        index = bisect_right(bounds, key) - 1
        if index >= 0:
            sums[index][0] += 1
            sums[index][1] += (span.end - span.start) * 1000
    labels = bucket_labels(bounds, prefix, inclusive_gap)
    return [[label, n, total / n if n else 0.0] for label, (n, total) in zip(labels, sums)]
