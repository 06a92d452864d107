"""The execute phase: scheduler selection, determinism, and resilience
semantics across the serial, batched, auto and process schedulers."""

import numpy as np
import pytest

from repro.obs.observer import Observer
from repro.qir.builder import SimpleModule
from repro.qir.profiles import AdaptiveProfile
from repro.resilience import (
    FallbackChain,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.runtime import (
    AUTO_BATCHED_MAX_QUBITS,
    SCHEDULERS,
    AutoScheduler,
    BatchedScheduler,
    QirRuntime,
    compile_plan,
    QirSession,
    SerialScheduler,
    get_scheduler,
    run_shots,
)
from repro.runtime.errors import BackendFaultError
from repro.runtime.sampling_fastpath import FastPathUnsupported
from repro.runtime.schedulers import batch_chunk_size
from repro.workloads.qec import repetition_code_qir, teleportation_qir
from repro.workloads.qir_programs import (
    bell_qir,
    counted_loop_qir,
    ghz_qir,
    qft_qir,
    reset_chain_qir,
)

FEEDBACK_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %b, label %flip, label %exit

flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %exit

exit:
  call void @__quantum__qis__mz__body(ptr null, ptr inttoptr (i64 1 to ptr))
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="2" }
"""


def reset_rounds_qir(width, seed, rounds=3):
    """Seeded reset-round circuit: per round, a rotation on every qubit and
    a cz/cnot on disjoint random pairs, then measure and reset every
    qubit.  No feedback, but gates after measurement defeat the fast path."""
    rng = np.random.default_rng(seed)
    sm = SimpleModule(
        "reset_rounds", width, width, addressing="static", profile=AdaptiveProfile
    )
    for index in range(rounds):
        for q in range(width):
            gate = "ry" if rng.random() < 0.6 else "rz"
            sm.qis.gate(gate, [q], [float(rng.uniform(0.1, 3.0))])
        order = [int(q) for q in rng.permutation(width)]
        for a, b in zip(order[::2], order[1::2]):
            sm.qis.gate("cz" if rng.random() < 0.5 else "cnot", [a, b], [])
        for q in range(width):
            sm.qis.mz(q, q)
        if index < rounds - 1:
            for q in range(width):
                sm.qis.reset(q)
    sm.record_output()
    return sm.ir()


#: (program, required width, reads a measurement result, straight-line)
#: -- reset-round widths straddle the auto scheduler's crossover.
DIFFERENTIAL_CASES = [
    pytest.param(bell_qir("static"), 2, False, True, id="bell"),
    pytest.param(qft_qir(3), 3, False, True, id="qft3"),
    pytest.param(qft_qir(6), 6, False, True, id="qft6"),
    pytest.param(reset_chain_qir(2, rounds=2), 2, False, False, id="reset_chain2"),
    pytest.param(reset_chain_qir(), 2, False, False, id="reset_chain"),
    *[
        pytest.param(reset_rounds_qir(w, seed=w), w, False, False, id=f"reset_rounds{w}")
        for w in (2, 4, 6, 8, 10, 12, 13, 14)
    ],
    pytest.param(repetition_code_qir(5, rounds=3), 9, True, False, id="repetition5"),
    pytest.param(teleportation_qir(), 3, True, False, id="teleportation"),
]


def counts_for(text, scheduler, *, seed=123, shots=200, jobs=1, **kwargs):
    rt = QirRuntime(seed=seed)
    return rt.run_shots(
        text, shots=shots, scheduler=scheduler, jobs=jobs, **kwargs
    )


class TestGetScheduler:
    def test_resolves_each_name(self):
        assert isinstance(get_scheduler("serial"), SerialScheduler)
        assert isinstance(get_scheduler("batched"), BatchedScheduler)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("quantum")

    def test_threaded_is_rejected_with_the_four_names(self):
        with pytest.raises(ValueError) as raised:
            get_scheduler("threaded", jobs=2)
        assert "unknown scheduler 'threaded'" in str(raised.value)
        assert "choose from auto, serial, batched, process" in str(raised.value)
        assert SCHEDULERS == ("auto", "serial", "batched", "process")

    def test_jobs_with_serial_raises(self):
        with pytest.raises(ValueError, match="requires the process scheduler"):
            get_scheduler("serial", jobs=4)
        with pytest.raises(ValueError, match="requires the process scheduler"):
            get_scheduler("batched", jobs=2)

    def test_auto_is_the_default_and_never_spawns_workers(self):
        assert isinstance(get_scheduler("auto"), AutoScheduler)
        assert QirRuntime().default_scheduler == "auto"
        with pytest.raises(ValueError, match="auto never spawns workers"):
            get_scheduler("auto", jobs=2)
        with pytest.raises(ValueError, match="chunk sizing"):
            get_scheduler("auto", chunk_shots=4)

    def test_nonpositive_jobs_raises(self):
        with pytest.raises(ValueError):
            get_scheduler("process", jobs=0)

    def test_runtime_validates_defaults_eagerly(self):
        with pytest.raises(ValueError, match="requires the process scheduler"):
            QirRuntime(scheduler="serial", jobs=4)


class TestCrossSchedulerDeterminism:
    """Acceptance: same seed -> identical counts on every scheduler."""

    @pytest.mark.parametrize("text,width,feedback,straight", DIFFERENTIAL_CASES)
    def test_counts_are_identical_across_schedulers(
        self, text, width, feedback, straight
    ):
        shots = 200 if width <= 6 else 24
        serial = counts_for(text, "serial", shots=shots, sampling="never")
        process = counts_for(text, "process", jobs=2, shots=shots, sampling="never")
        batched = counts_for(text, "batched", shots=shots)
        auto = counts_for(text, "auto", shots=shots, sampling="never")
        assert serial.counts == process.counts == batched.counts == auto.counts
        assert sum(serial.counts.values()) == shots
        # auto batches exactly the narrow programs without feedback.
        narrow = width <= AUTO_BATCHED_MAX_QUBITS
        assert (auto.scheduler == "batched") == (narrow and not feedback)
        # Under the full tier order the sampling tiers still go first.
        tiered = counts_for(text, "auto", shots=shots)
        assert tiered.counts == counts_for(text, "serial", shots=shots).counts
        assert tiered.used_fast_path == straight
        if not straight:
            assert tiered.scheduler == auto.scheduler

    @pytest.mark.parametrize(
        "text", [bell_qir("static"), qft_qir(3), qft_qir(6)], ids=["bell", "qft3", "qft6"]
    )
    def test_auto_keeps_the_warm_distribution_tier(self, text):
        session = QirSession(seed=5)
        cold = session.run_shots(text, shots=100)
        warm = session.run_shots(text, shots=100)
        assert cold.used_fast_path and not cold.distribution_served
        assert warm.used_fast_path and warm.distribution_served

    def test_rejected_fastpath_attempt_does_not_shift_seeds(self):
        # Under sampling="auto" serial/process *attempt* the fast path on
        # this program and get rejected; batched never attempts it.  The
        # attempt must not consume from the runtime's seed stream, or the
        # schedulers would diverge.
        text = reset_chain_qir(2, rounds=2)
        auto_serial = counts_for(text, "serial")
        never_serial = counts_for(text, "serial", sampling="never")
        batched = counts_for(text, "batched")
        assert auto_serial.counts == never_serial.counts == batched.counts

    def test_result_reports_the_scheduler_that_ran(self):
        text = reset_chain_qir(2, rounds=2)
        assert counts_for(text, "serial").scheduler == "serial"
        assert counts_for(text, "process", jobs=2).scheduler == "process"
        assert counts_for(text, "batched").scheduler == "batched"

    def test_module_level_wrapper_accepts_scheduler(self):
        result = run_shots(
            bell_qir("static"), shots=50, seed=5,
            scheduler="process", jobs=2, sampling="never",
        )
        assert sum(result.counts.values()) == 50


class TestBatchedScheduler:
    def test_never_takes_the_sampling_fastpath(self):
        result = counts_for(bell_qir("static"), "batched")
        assert not result.used_fast_path
        assert result.scheduler == "batched"

    def test_sampling_require_raises(self):
        with pytest.raises(FastPathUnsupported, match="batched"):
            counts_for(bell_qir("static"), "batched", sampling="require")

    def test_chunk_size_respects_the_amplitude_budget(self):
        assert batch_chunk_size(100, 4) == 100
        assert batch_chunk_size(5000, 4) == 1024  # hard cap
        assert batch_chunk_size(10, 24) == 1      # wide register: tiny chunks
        assert batch_chunk_size(10, None) >= 1    # unknown width is safe

    def test_chunked_execution_matches_serial(self, monkeypatch):
        import repro.runtime.schedulers as schedulers

        monkeypatch.setattr(schedulers, "_BATCH_CHUNK_CAP", 8)
        text = reset_chain_qir(2, rounds=2)
        observer = Observer()
        rt = QirRuntime(seed=123, observer=observer)
        batched = rt.run_shots(text, shots=40, scheduler="batched")
        serial = QirRuntime(seed=123).run_shots(text, shots=40, sampling="never")
        assert batched.counts == serial.counts
        assert observer.metrics.value("runtime.scheduler.batched_chunks") == 5

    @pytest.mark.parametrize(
        "kwargs,reason",
        [
            ({"keep_stats": True}, "keep_stats"),
            ({"collect_failures": True}, "per-shot resilience"),
        ],
    )
    def test_static_ineligibility_falls_back_to_serial(self, kwargs, reason):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        result = rt.run_shots(
            bell_qir("static"), shots=20, scheduler="batched",
            sampling="never", **kwargs,
        )
        assert result.scheduler == "serial"
        assert sum(result.counts.values()) == 20
        key = "runtime.scheduler.batched_fallback{reason=" + reason + "}"
        assert observer.metrics.value(key) == 1

    def test_stabilizer_backend_falls_back_to_serial(self):
        rt = QirRuntime(backend="stabilizer", seed=1)
        result = rt.run_shots(bell_qir("static"), shots=20, scheduler="batched")
        assert result.scheduler == "serial"
        assert sum(result.counts.values()) == 20

    def test_classical_feedback_aborts_the_batch(self):
        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        result = rt.run_shots(FEEDBACK_PROGRAM, shots=30, scheduler="batched")
        assert result.scheduler == "serial"
        assert sum(result.counts.values()) == 30
        counters = observer.snapshot()["counters"]
        fallbacks = {
            k: v
            for k, v in counters.items()
            if k.startswith("runtime.scheduler.batched_fallback")
        }
        assert len(fallbacks) == 1
        (key,) = fallbacks
        assert key == "runtime.scheduler.batched_fallback{reason=feedback}"
        # The serial fallback really ran the feedback: the conditional x
        # zeroes the qubit whenever r0 was 1, so the second measurement is
        # always 0 (without feedback, "11" would appear).
        assert set(result.counts) <= {"00", "01"}

    @pytest.mark.parametrize("scheduler", ["auto", "batched"])
    def test_batched_abort_is_memoized_on_the_plan(self, scheduler, monkeypatch):
        import repro.runtime.schedulers as schedulers

        entered = []
        original = schedulers.run_batched

        def counting_run_batched(task):
            entered.append(task.shots)
            return original(task)

        monkeypatch.setattr(schedulers, "run_batched", counting_run_batched)
        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        plan = QirSession(runtime=rt).compile(FEEDBACK_PROGRAM)
        first = rt.run_shots(plan, shots=30, scheduler=scheduler)
        assert entered == [30]
        assert plan.batched_decline == "feedback"
        second = rt.run_shots(plan, shots=30, scheduler=scheduler)
        assert entered == [30]  # the doomed batch is not re-attempted
        assert first.scheduler == second.scheduler == "serial"
        key = "runtime.scheduler.batched_fallback{reason=feedback}"
        assert observer.metrics.value(key) == 1  # counted on the real attempt only
        reference = QirRuntime(seed=3)
        assert first.counts == reference.run_shots(FEEDBACK_PROGRAM, shots=30).counts
        assert second.counts == reference.run_shots(FEEDBACK_PROGRAM, shots=30).counts

    def test_batched_decline_is_not_serialized(self):
        from repro.runtime import ExecutionPlan

        rt = QirRuntime(seed=3)
        plan = QirSession(runtime=rt).compile(FEEDBACK_PROGRAM)
        rt.run_shots(plan, shots=5)
        assert plan.batched_decline == "feedback"
        assert ExecutionPlan.from_bytes(plan.to_bytes()).batched_decline is None

    def test_interpreted_batch_opens_with_a_probe_chunk(self):
        # A doomed batch aborts inside its first chunk, so interpreted
        # batches open with a small one.  Counts never change.
        observer = Observer()
        rt = QirRuntime(seed=4, observer=observer)
        text = counted_loop_qir(3)
        assert compile_plan(text).fused is None  # the interpreter path
        batched = rt.run_shots(text, shots=40, scheduler="batched", sampling="never")
        assert batched.scheduler == "batched"
        assert observer.metrics.value("runtime.scheduler.batched_chunks") == 2
        serial = QirRuntime(seed=4).run_shots(
            text, shots=40, sampling="never", scheduler="serial"
        )
        assert batched.counts == serial.counts

    def test_batched_counts_metrics(self):
        observer = Observer()
        rt = QirRuntime(seed=9, observer=observer)
        rt.run_shots(reset_chain_qir(2, rounds=2), shots=25, scheduler="batched")
        metrics = observer.metrics
        assert metrics.value("runtime.shots.batched") == 25
        assert metrics.value("runtime.scheduler.runs{scheduler=batched}") == 1


class TestAutoSchedulerObservability:
    """The auto choice is explained on the run_shots span and counted."""

    @staticmethod
    def _run(text, **kwargs):
        observer = Observer()
        result = QirRuntime(seed=1, observer=observer).run_shots(
            text, shots=12, **kwargs
        )
        (span,) = [e for e in observer.tracer.events if e["name"] == "run_shots"]
        return result, span["args"], observer.snapshot()["counters"]

    @pytest.mark.parametrize(
        "text,choice,reason",
        [
            (reset_chain_qir(3, rounds=2), "batched", f"width<={AUTO_BATCHED_MAX_QUBITS}"),
            (reset_rounds_qir(AUTO_BATCHED_MAX_QUBITS + 1, seed=1), "serial",
             f"width>{AUTO_BATCHED_MAX_QUBITS}"),
            (FEEDBACK_PROGRAM, "serial", "feedback"),
        ],
        ids=["eligible", "wide", "feedback"],
    )
    def test_span_tags_and_counter(self, text, choice, reason):
        result, tags, counters = self._run(text)
        assert result.scheduler == choice
        assert tags["scheduler"] == "auto"
        assert tags["scheduler.resolved"] == choice
        assert tags["scheduler.reason"] == reason
        assert tags["fastpath.decline"]  # the fast path's reason, not swallowed
        key = f"runtime.scheduler.auto{{choice={choice},reason={reason}}}"
        assert counters[key] == 1
        decline = f"runtime.fastpath.decline{{reason={tags['fastpath.decline']}}}"
        assert counters[decline] == 1

    @pytest.mark.parametrize(
        "kwargs,reason",
        [
            ({"keep_stats": True}, "keep_stats"),
            ({"collect_failures": True}, "per-shot resilience"),
            ({"sampling": "never"}, f"width<={AUTO_BATCHED_MAX_QUBITS}"),
        ],
    )
    def test_static_reasons(self, kwargs, reason):
        _, tags, counters = self._run(bell_qir("static"), **kwargs)
        assert tags["scheduler.reason"] == reason
        assert not any(k.startswith("runtime.scheduler.batched_fallback") for k in counters)

    def test_fast_path_runs_carry_no_scheduler_choice(self):
        result, tags, counters = self._run(bell_qir("static"))
        assert result.used_fast_path
        assert "scheduler.resolved" not in tags
        assert not any(k.startswith("runtime.scheduler.auto") for k in counters)


class TestProcessScheduler:
    """Tentpole: worker processes over serialized plans, bit-identical to
    serial for a fixed seed."""

    def test_get_scheduler_resolves_process(self):
        from repro.runtime import ProcessScheduler

        sched = get_scheduler("process", 4)
        assert isinstance(sched, ProcessScheduler)
        assert sched.jobs == 4

    @pytest.mark.parametrize(
        "text",
        [bell_qir("static"), qft_qir(3), reset_chain_qir(2, rounds=2)],
        ids=["bell", "qft3", "reset_chain"],
    )
    def test_counts_are_identical_to_serial(self, text):
        serial = counts_for(text, "serial", shots=60, sampling="never")
        process = counts_for(text, "process", shots=60, jobs=3, sampling="never")
        assert serial.counts == process.counts
        assert sum(process.counts.values()) == 60
        assert process.scheduler == "process"

    def test_fastpath_still_wins_under_auto_sampling(self):
        # The fast path is per-run, not per-shot: when it applies, no pool
        # is spawned and every scheduler produces the same counts.
        auto = counts_for(bell_qir("static"), "process", shots=60, jobs=3)
        serial = counts_for(bell_qir("static"), "serial", shots=60)
        assert auto.used_fast_path
        assert auto.counts == serial.counts

    def test_one_job_degrades_to_serial_loop(self):
        # get_scheduler gives jobs=1 a 2-worker pool; a directly built 1-worker scheduler skips the
        # pool entirely and reports the serial loop it actually ran.
        from repro.runtime import ProcessScheduler

        one = counts_for(
            bell_qir("static"), "process", shots=30, jobs=1, sampling="never"
        )
        many = counts_for(
            bell_qir("static"), "process", shots=30, jobs=4, sampling="never"
        )
        assert one.counts == many.counts
        sched = ProcessScheduler(jobs=1)
        assert sched.effective == "process"  # until it runs

    def test_single_shot_degrades_to_serial(self):
        result = counts_for(
            bell_qir("static"), "process", shots=1, jobs=4, sampling="never"
        )
        assert result.scheduler == "serial"
        assert sum(result.counts.values()) == 1

    def test_missing_plan_bytes_raises(self):
        import numpy as np

        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience.fallback import BackendLevel
        from repro.runtime import ProcessScheduler
        from repro.runtime.schedulers import ChainGuard, ShotExecutor, ShotTask

        task = ShotTask(
            executor=ShotExecutor(
                "statevector", None, 1000, 4, True, NULL_OBSERVER
            ),
            module=None, entry=None, shots=8,
            root=np.random.SeedSequence(1),
            policy=RetryPolicy(max_attempts=1), injector=None,
            chain=ChainGuard(
                FallbackChain([BackendLevel("statevector", noisy=True)])
            ),
            keep_stats=False, resilient=False, timed=False,
        )
        with pytest.raises(ValueError, match="plan_bytes"):
            ProcessScheduler(jobs=2).run(task)

    def test_spawn_start_method_matches_fork_counts(self):
        # Drive the scheduler directly so the test controls start_method
        # (the public API always uses the platform default).
        import numpy as np

        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience.fallback import BackendLevel
        from repro.runtime import ProcessScheduler, compile_plan
        from repro.runtime.schedulers import ChainGuard, ShotExecutor, ShotTask

        plan = compile_plan(bell_qir("static"))

        def counts_with(start_method):
            from collections import Counter

            task = ShotTask(
                executor=ShotExecutor(
                    "statevector", None, 1_000_000, 4, True, NULL_OBSERVER
                ),
                module=plan.module, entry=plan.entry, shots=24,
                root=np.random.SeedSequence(11),
                policy=RetryPolicy(max_attempts=1), injector=None,
                chain=ChainGuard(
                    FallbackChain([BackendLevel("statevector", noisy=True)])
                ),
                keep_stats=False, resilient=False, timed=False,
                plan_bytes=plan.to_bytes(),
            )
            sched = ProcessScheduler(jobs=2, start_method=start_method)
            return Counter(o.bitstring for o in sched.run(task))

        assert counts_with("spawn") == counts_with("fork")

    def test_counts_keys_stay_sorted(self):
        result = QirRuntime(seed=4).run_shots(
            qft_qir(3), shots=150, scheduler="process", jobs=3, sampling="never"
        )
        assert list(result.counts) == sorted(result.counts)

    def test_process_chunk_metrics_and_worker_spans(self):
        from repro.runtime import guided_chunks

        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        rt.run_shots(
            bell_qir("static"), shots=20,
            scheduler="process", jobs=2, sampling="never",
        )
        expected_chunks = len(guided_chunks(20, 2))
        assert observer.metrics.value(
            "runtime.scheduler.process_chunks"
        ) == expected_chunks
        assert observer.metrics.value(
            "scheduler.queue.chunks"
        ) == expected_chunks
        assert observer.metrics.value(
            "runtime.scheduler.runs{scheduler=process}"
        ) == 1
        workers = [
            e for e in observer.tracer.events if e["name"] == "process.worker"
        ]
        assert len(workers) == expected_chunks
        # Many chunks, at most `jobs` workers: pids map to stable tids.
        assert {e["tid"] for e in workers} <= {1, 2}
        # Every shot appears in exactly one chunk tag, and each span
        # carries the queue-dispatch tags the trace analytics read.
        covered = []
        for event in workers:
            lo, hi = event["args"]["chunk"].split("..")
            covered.extend(range(int(lo), int(hi) + 1))
            assert event["args"]["round"] == 0
            assert "steal" in event["args"]
        assert sorted(covered) == list(range(20))

    def test_fail_fast_raises_first_shot_error(self):
        from repro.runtime.errors import StepLimitExceeded

        rt = QirRuntime(seed=1, step_limit=3)
        with pytest.raises(StepLimitExceeded):
            rt.run_shots(
                bell_qir("static"), shots=20,
                scheduler="process", jobs=3, sampling="never",
            )


class TestProcessResilience:
    """Resilience semantics across process boundaries."""

    def test_poisoned_shots_fail_identically_to_serial(self):
        plan = FaultPlan.poison([3, 9, 17], site="gate")
        kwargs = dict(
            shots=40, fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        process = QirRuntime(seed=1).run_shots(
            bell_qir("static"), scheduler="process", jobs=4, **kwargs
        )
        serial = QirRuntime(seed=1).run_shots(bell_qir("static"), **kwargs)

        assert sorted(f.shot for f in process.failed_shots) == [3, 9, 17]
        assert process.per_error_counts == {BackendFaultError.code: 3}
        assert process.counts == serial.counts
        assert not process.degraded

    def test_transient_faults_recovered_by_retry(self):
        plan = FaultPlan.poison([2, 11, 23], site="gate", failures=1)
        result = QirRuntime(seed=1).run_shots(
            bell_qir("static"), shots=40,
            scheduler="process", jobs=4,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert result.successful_shots == 40
        assert result.retried_shots == 3

    def test_fault_tallies_merge_from_workers(self):
        observer = Observer()
        plan = FaultPlan.poison([2, 11, 23], site="gate", failures=1)
        rt = QirRuntime(seed=1, observer=observer)
        rt.run_shots(
            bell_qir("static"), shots=40,
            scheduler="process", jobs=4,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert observer.metrics.value("resilience.faults_injected") == 3

    def test_per_chunk_fallback_merges_degraded_flag_and_history(self):
        # Documented divergence: every dispatched chunk demotes its own
        # chain clone (clones cannot persist across chunks -- which
        # backend serves a shot's attempt 0 must be a pure function of
        # shot index, not of which process happened to pull the chunk),
        # so the merged run is degraded and carries one history entry
        # per chunk.
        from repro.runtime import guided_chunks

        plan = FaultPlan(rules=(FaultRule(site="gate", backend="statevector"),))
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        result = QirRuntime(seed=2).run_shots(
            ghz_qir(3), shots=30,
            scheduler="process", jobs=3,
            fault_plan=plan, fallback=chain, retry=RetryPolicy(max_attempts=2),
        )
        assert result.degraded
        assert result.successful_shots == 30
        # Every chunk's chain clone demoted once.
        assert len(result.fallback_history) == len(guided_chunks(30, 3))
        assert all("stabilizer" in entry for entry in result.fallback_history)
        assert result.backend_shot_counts.get("stabilizer", 0) >= 27


class TestMergeStability:
    """Satellite: ShotsResult merging must not depend on completion order."""

    def _task_and_outcomes(self):
        import numpy as np

        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience.fallback import BackendLevel
        from repro.resilience.report import ShotFailure
        from repro.runtime.errors import BackendFaultError, TrapError
        from repro.runtime.schedulers import (
            ChainGuard,
            ShotExecutor,
            ShotOutcome,
            ShotTask,
        )

        task = ShotTask(
            executor=ShotExecutor(
                "statevector", None, 1000, 4, True, NULL_OBSERVER
            ),
            module=None, entry=None, shots=12,
            root=np.random.SeedSequence(0),
            policy=RetryPolicy(max_attempts=1), injector=None,
            chain=ChainGuard(
                FallbackChain([BackendLevel("statevector", noisy=True)])
            ),
            keep_stats=False, resilient=True, timed=False,
        )
        outcomes = []
        for shot in range(12):
            if shot in (2, 5, 9):
                error = (
                    TrapError("boom") if shot == 5 else BackendFaultError("io")
                )
                outcomes.append(
                    ShotOutcome(
                        shot=shot, backend_label="statevector", attempts=1,
                        failure=ShotFailure.from_error(
                            shot, error, 1, "statevector"
                        ),
                    )
                )
            else:
                outcomes.append(
                    ShotOutcome(
                        shot=shot,
                        bitstring="11" if shot % 3 else "00",
                        backend_label="statevector",
                        attempts=2 if shot == 7 else 1,
                    )
                )
        return task, outcomes

    def test_shuffled_outcomes_merge_identically(self):
        import random

        from repro.runtime.schedulers import build_shots_result

        task, outcomes = self._task_and_outcomes()
        reference = build_shots_result(task, list(outcomes), "process")
        for round_seed in range(8):
            shuffled = list(outcomes)
            random.Random(round_seed).shuffle(shuffled)
            result = build_shots_result(task, shuffled, "process")
            assert result.counts == reference.counts
            assert result.per_error_counts == reference.per_error_counts
            assert [f.shot for f in result.failed_shots] == [
                f.shot for f in reference.failed_shots
            ]
            assert result.degraded == reference.degraded
            assert result.backend_shot_counts == reference.backend_shot_counts
            assert result.retried_shots == reference.retried_shots

    def test_failed_shot_records_come_back_in_shot_order(self):
        import random

        from repro.runtime.schedulers import build_shots_result

        task, outcomes = self._task_and_outcomes()
        random.Random(99).shuffle(outcomes)
        result = build_shots_result(task, outcomes, "process")
        assert [f.shot for f in result.failed_shots] == [2, 5, 9]
