"""End-to-end observability wiring: parse -> passes -> runtime -> resilience."""

import pytest

from repro.llvmir import parse_assembly
from repro.obs import NULL_OBSERVER, NullObserver, Observer, as_observer, render_profile
from repro.passes import run_passes, unroll_pipeline
from repro.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.runtime import QirRuntime
from repro.workloads.qir_programs import bell_qir, counted_loop_qir, ghz_qir


class TestNullObserver:
    def test_null_observer_is_disabled_and_inert(self):
        assert not NULL_OBSERVER.enabled
        NULL_OBSERVER.inc("anything", 5)
        NULL_OBSERVER.observe("lat", 0.1)
        NULL_OBSERVER.set_gauge("g", 1)
        with NULL_OBSERVER.span("nothing", tag=1) as span:
            span.tag("more", 2)
        assert NULL_OBSERVER.snapshot() == {}

    def test_as_observer_normalises_none(self):
        assert as_observer(None) is NULL_OBSERVER
        real = Observer()
        assert as_observer(real) is real

    def test_default_runtime_records_nothing(self):
        runtime = QirRuntime(seed=1)
        runtime.run_shots(bell_qir("static"), shots=5, sampling="never")
        assert isinstance(runtime.observer, NullObserver)


class TestParseProfiling:
    def test_parse_metrics_and_spans(self):
        observer = Observer()
        source = ghz_qir(3, addressing="static")
        parse_assembly(source, observer=observer)
        counters = observer.snapshot()["counters"]
        assert counters["parse.bytes"] == len(source)
        assert counters["parse.tokens"] > 0
        assert counters["parse.modules"] == 1
        assert counters["parse.lex_seconds"] > 0
        assert counters["parse.parse_seconds"] > 0
        gauges = observer.snapshot()["gauges"]
        assert gauges["parse.tokens_per_second"] > 0
        names = [e["name"] for e in observer.tracer.events]
        assert "lex" in names and "parse" in names and "parse_assembly" in names

    def test_parse_without_observer_unchanged(self):
        module = parse_assembly(ghz_qir(3))
        assert module.get_function("main") is not None


class TestPassProfiling:
    def test_per_pass_records_and_metrics(self):
        observer = Observer()
        module = parse_assembly(counted_loop_qir(8))
        result = run_passes(module, unroll_pipeline(), observer=observer)
        assert result.changed
        assert result.per_pass_stats, "profiled run must produce records"
        record = result.per_pass_stats[0]
        assert record.seconds >= 0
        assert record.instructions_before > 0
        # Unrolling rewrites the module: some record must move instructions.
        assert any(r.instructions_delta != 0 for r in result.per_pass_stats)
        assert result.total_seconds() > 0
        counters = observer.snapshot()["counters"]
        unroll_keys = [k for k in counters if k.startswith("passes.runs{")]
        assert any("loop-unroll" in k for k in unroll_keys)
        assert any(e["name"].startswith("pass:") for e in observer.tracer.events)

    def test_unprofiled_run_skips_records(self):
        module = parse_assembly(counted_loop_qir(4))
        result = run_passes(module, unroll_pipeline())
        assert result.changed
        assert result.per_pass_stats == []

    def test_run_passes_accepts_pass_list(self):
        from repro.passes import DeadCodeEliminationPass, Mem2RegPass

        module = parse_assembly(counted_loop_qir(4))
        result = run_passes(
            module, [Mem2RegPass(), DeadCodeEliminationPass()], observer=Observer()
        )
        assert set(result.per_pass) == {"mem2reg", "dce"}


class TestRuntimeProfiling:
    def test_per_shot_histogram_and_intrinsic_counters(self):
        observer = Observer()
        runtime = QirRuntime(seed=3, observer=observer)
        runtime.run_shots(
            ghz_qir(3, addressing="static"), shots=7, sampling="never",
            scheduler="serial",
        )
        snapshot = observer.snapshot()
        assert snapshot["histograms"]["runtime.shot_seconds"]["count"] == 7
        counters = snapshot["counters"]
        assert counters["runtime.shots.requested"] == 7
        assert counters["runtime.shots.per_shot"] == 7
        h_calls = counters["runtime.intrinsic_calls{intrinsic=__quantum__qis__h__body}"]
        assert h_calls == 7  # one Hadamard per shot
        assert (
            counters["runtime.intrinsic_seconds{intrinsic=__quantum__qis__h__body}"] > 0
        )
        assert snapshot["gauges"]["runtime.shots_per_second"] > 0

    def test_fastpath_counted_separately(self):
        observer = Observer()
        runtime = QirRuntime(seed=3, observer=observer)
        result = runtime.run_shots(ghz_qir(3, addressing="static"), shots=20)
        assert result.used_fast_path
        counters = observer.snapshot()["counters"]
        assert counters["runtime.shots.fastpath"] == 20
        assert "runtime.shots.per_shot" not in counters
        # The single fastpath evolution still profiles its intrinsics.
        assert any(k.startswith("runtime.intrinsic_calls{") for k in counters)

    def test_wall_seconds_always_measured(self):
        result = QirRuntime(seed=1).run_shots(bell_qir("static"), shots=10)
        assert result.wall_seconds > 0
        assert result.shots_per_second > 0

    def test_per_shot_stats_do_not_profile_intrinsics_by_default(self):
        result = QirRuntime(seed=1).run_shots(
            bell_qir("static"), shots=2, sampling="never", keep_stats=True
        )
        assert result.per_shot_stats[0].intrinsic_calls == {}


class TestResilienceProfiling:
    def test_retry_and_fault_counters(self):
        observer = Observer()
        plan = FaultPlan(
            rules=(FaultRule(site="gate", probability=1.0, failures=1),), seed=5
        )
        runtime = QirRuntime(seed=5, observer=observer)
        result = runtime.run_shots(
            bell_qir("static"), shots=6, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
        )
        assert result.successful_shots == 6
        assert result.retried_shots == 6
        counters = observer.snapshot()["counters"]
        assert counters["resilience.retried_shots"] == 6
        assert counters["resilience.retry_attempts"] == 6
        assert counters["resilience.faults_injected"] == 6

    def test_failure_counters_by_code(self):
        observer = Observer()
        plan = FaultPlan.poison([0, 2], site="gate")
        runtime = QirRuntime(seed=5, observer=observer)
        result = runtime.run_shots(
            bell_qir("static"), shots=4, fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
        )
        assert len(result.failed_shots) == 2
        counters = observer.snapshot()["counters"]
        failure_keys = {k: v for k, v in counters.items()
                        if k.startswith("resilience.shot_failures{")}
        assert sum(failure_keys.values()) == 2


class TestProfileRenderer:
    def test_renders_all_sections(self):
        observer = Observer()
        module = parse_assembly(counted_loop_qir(6), observer=observer)
        run_passes(module, unroll_pipeline(), observer=observer)
        QirRuntime(seed=2, observer=observer).run_shots(
            module, shots=5, sampling="never"
        )
        table = render_profile(observer)
        assert "== qir profile ==" in table
        assert "-- parse --" in table
        assert "-- passes --" in table
        assert "loop-unroll" in table
        assert "-- runtime --" in table
        assert "-- intrinsics --" in table
        assert "__quantum__qis__h__body" in table

    def test_empty_observer_renders_empty(self):
        assert render_profile(Observer()) == ""
        assert render_profile(NULL_OBSERVER) == ""


class TestProfileRendererEdgeCases:
    """render_profile with empty registry/tracer (ISSUE 3 satellite)."""

    def test_empty_metrics_with_nonempty_tracer_renders_empty(self):
        observer = Observer()
        with observer.span("only_a_span"):
            pass
        assert len(observer.tracer) > 0
        assert render_profile(observer) == ""

    def test_metrics_without_recognised_sections_land_in_other(self):
        observer = Observer()
        observer.inc("custom.counter", 3)
        table = render_profile(observer)
        assert "-- other --" in table
        assert "custom.counter" in table

    def test_budget_bust_counters_render_as_warnings(self):
        observer = Observer()
        observer.inc("pass.budget_bust", 2, **{"pass": "dce", "kind": "seconds"})
        table = render_profile(observer)
        assert "-- budget busts --" in table
        assert "WARNING pass 'dce' busted its seconds budget x2" in table

    def test_custom_title(self):
        observer = Observer()
        observer.inc("parse.tokens", 10)
        assert render_profile(observer, title="my tool").startswith("== my tool ==")
