"""Self-time arithmetic and wrapper installation of the benchmark tracer."""

from __future__ import annotations

import threading

import pytest
from tracer import Span, Tracer, covered, install, loglog_slope, self_times, tail_percentile


def test_covered_merges_overlapping_children_and_clips_to_parent():
    # [1,3] and [2,4] overlap -> [1,4]; [8,12] is clipped to the parent's end at 10.
    assert covered([(2.0, 4.0), (1.0, 3.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 2.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(1.0)


def test_self_time_subtracts_union_of_children_on_other_threads():
    spans = [
        Span(1, "run_batch", 0.0, 10.0, None, 100),
        # Two workers overlap in [2, 5]; their union is [1, 7], six seconds.
        Span(2, "complete", 1.0, 5.0, 1, 200),
        Span(3, "complete", 2.0, 7.0, 1, 300),
        Span(4, "count_tokens", 3.0, 4.0, 3, 300),
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(4.0)
    assert times[2] == pytest.approx(4.0)
    assert times[3] == pytest.approx(4.0)
    assert times[4] == pytest.approx(1.0)


def test_worker_spans_are_parented_to_the_submitting_span():
    tracer = Tracer()
    work = tracer.wrap("layer.work", lambda: threading.get_ident())
    with tracer.span("cli.run"):
        with tracer.executor_class()(max_workers=2) as pool:
            idents = [f.result() for f in [pool.submit(work) for _ in range(4)]]
    root = next(s for s in tracer.spans if s.name == "cli.run")
    workers = [s for s in tracer.spans if s.name == "layer.work"]
    assert len(workers) == 4 and all(s.parent == root.id for s in workers)
    assert {s.thread for s in workers} == set(idents) and root.thread not in idents


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("layer.boom", boom, lambda args, result, exc: type(exc).__name__)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0].detail == "ValueError"


def test_install_wraps_every_binding_and_restores():
    from eventqa import backends, cli, graphcore, promptkit

    original = graphcore.verbalize_graph
    restore = install(Tracer())
    try:
        assert cli.verbalize_graph is promptkit.verbalize_graph is graphcore.verbalize_graph
        assert graphcore.verbalize_graph is not original
        assert backends.count_tokens is promptkit.count_tokens
        assert backends.oracle_answer is graphcore.oracle_answer
    finally:
        restore()
    assert graphcore.verbalize_graph is original and cli.verbalize_graph is original


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(15))) is None
    assert tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tail_percentile([float(i) for i in range(99)]) == (75.0, 74.0)
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0


def test_loglog_slope_recovers_the_growth_exponent():
    assert loglog_slope([(n, 0.5 * n**3) for n in (4, 8, 16, 32)]) == pytest.approx(3.0)
    assert loglog_slope([(10, 1.0), (10, 2.0)]) == 0.0
