from time import perf_counter

import pytest

from layers import SPAN_METRICS, TracedRequest, attribution, layer_metrics
from spans import Recorder, Span, self_times


def _synthetic():
    spans = [
        Span("runtime.plan", 0.0, 10.0),
        Span("llvmir.parse", 1.0, 4.0),
        Span("llvmir.lex", 2.0, 3.0),
        Span("runtime.execute.fastpath", 5.0, 6.0),
    ]
    return TracedRequest(12.0, spans)


def test_self_time_subtracts_direct_children():
    assert self_times(_synthetic().spans) == {
        "runtime.plan": 6.0,
        "llvmir.parse": 2.0,
        "llvmir.lex": 1.0,
        "runtime.execute.fastpath": 1.0,
    }


def test_layers_plus_unattributed_equal_wall():
    requests = [_synthetic(), TracedRequest(3.0, [Span("llvmir.verify", 0.5, 1.0)])]
    totals, unattributed, wall = attribution(requests)
    assert wall == 15.0
    assert unattributed == pytest.approx(4.5)
    metrics = layer_metrics(requests, 0.0)
    per_request = sum(metrics[m][0] for m in SPAN_METRICS.values())
    per_request += metrics["unattributed_s"][0]
    assert per_request * len(requests) == pytest.approx(wall)


def test_unknown_span_is_an_error():
    with pytest.raises(ValueError):
        layer_metrics([TracedRequest(1.0, [Span("mystery", 0.0, 0.5)])], 0.0)


def test_traced_request_sums_to_its_wall_time():
    import repro.runtime.plan as plan_module
    from repro.runtime import QirSession
    from repro.workloads import ghz_qir

    original = plan_module.compile_plan
    session = QirSession(seed=1)
    recorder = Recorder().install()
    try:
        start = perf_counter()
        result = session.run_shots(ghz_qir(3), shots=50, pipeline="o1")
        wall = perf_counter() - start
    finally:
        recorder.uninstall()
    assert plan_module.compile_plan is original
    assert sum(result.counts.values()) == 50
    request = TracedRequest(wall, recorder.take())
    names = {s.name for s in request.spans}
    assert {"llvmir.lex", "llvmir.parse", "passes.o1", "runtime.plan"} <= names
    assert "runtime.execute.fastpath" in names
    totals, unattributed, traced_wall = attribution([request])
    assert unattributed >= 0
    assert sum(totals.values()) + unattributed == pytest.approx(traced_wall)
    metrics = layer_metrics([request], 0.0)
    assert metrics["llvmir.tokens"][0] > 0
    assert metrics["runtime.tier.fastpath_share"][0] == 1.0
