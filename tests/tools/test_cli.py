"""Tests for the qir-run / qir-opt / qir-translate command-line tools."""

import pytest

from repro.tools.qir_opt import main as opt_main
from repro.tools.qir_run import main as run_main
from repro.tools.qir_translate import main as translate_main
from repro.workloads.qir_programs import bell_qir, counted_loop_qir, reset_chain_qir


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.ll"
    path.write_text(bell_qir("static"))
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.ll"
    path.write_text(counted_loop_qir(4))
    return str(path)


QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


class TestQirRun:
    def test_single_shot_prints_output_records(self, bell_file, capsys):
        assert run_main([bell_file, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OUTPUT\tARRAY\t2")
        assert out.count("OUTPUT\tRESULT") == 2

    def test_multi_shot_histogram(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "200", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        counts = {k: int(v) for k, v in (line.split("\t") for line in lines)}
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == 200

    def test_stabilizer_backend(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--backend", "stabilizer", "--shots", "20", "--seed", "3"]
        ) == 0

    def test_noise_flags(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--shots", "100", "--seed", "4", "--noise-readout", "0.5"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 3  # readout noise breaks the 00/11 correlation

    def test_missing_file(self, capsys):
        assert run_main(["/nonexistent/file.ll"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ll"
        bad.write_text("this is not IR")
        assert run_main([str(bad)]) == 2

    def test_trap_exit_code(self, tmp_path, capsys):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__fail(ptr null)
          ret void
        }
        declare void @__quantum__rt__fail(ptr)
        attributes #0 = { "entry_point" }
        """
        path = tmp_path / "fail.ll"
        path.write_text(src)
        assert run_main([str(path)]) == 1
        assert "trap" in capsys.readouterr().err

    def test_infra_error_exit_code(self, tmp_path, capsys):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__bogus(ptr null)
          ret void
        }
        declare void @__quantum__rt__bogus(ptr)
        attributes #0 = { "entry_point" }
        """
        path = tmp_path / "unbound.ll"
        path.write_text(src)
        assert run_main([str(path), "--no-verify"]) == 3
        assert "QIR003" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(bell_qir("static")))
        assert run_main(["-", "--seed", "5"]) == 0


class TestQirRunResilience:
    def test_inject_fault_partial_results(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--shots", "50", "--seed", "6",
             "--inject-fault", "gate,shots=3:9"]
        ) == 0
        captured = capsys.readouterr()
        counts = {
            k: int(v)
            for k, v in (line.split("\t") for line in captured.out.strip().splitlines())
        }
        assert sum(counts.values()) == 48
        assert captured.err.count("FAIL\t") == 2
        assert "code=QIR010" in captured.err

    def test_retries_recover_transient_faults(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--shots", "50", "--seed", "6", "--retries", "3",
             "--inject-fault", "gate,shots=3:9,failures=2"]
        ) == 0
        captured = capsys.readouterr()
        counts = {
            k: int(v)
            for k, v in (line.split("\t") for line in captured.out.strip().splitlines())
        }
        assert sum(counts.values()) == 50
        assert "FAIL" not in captured.err

    def test_fallback_flag_degrades_to_stabilizer(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--shots", "40", "--seed", "6", "--fallback",
             "--retries", "2",
             "--inject-fault", "gate,backend=statevector"]
        ) == 0
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.err
        counts = {
            k: int(v)
            for k, v in (line.split("\t") for line in captured.out.strip().splitlines())
        }
        # The default chain demotes after 2 consecutive failures, so exactly
        # one shot is lost before the stabilizer takes over.
        assert sum(counts.values()) == 39
        assert captured.err.count("FAIL\t") == 1
        assert set(counts) <= {"00", "11"}

    def test_all_shots_trapped_exits_one(self, tmp_path, capsys):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__fail(ptr null)
          ret void
        }
        declare void @__quantum__rt__fail(ptr)
        attributes #0 = { "entry_point" }
        """
        path = tmp_path / "fail.ll"
        path.write_text(src)
        assert run_main([str(path), "--shots", "5", "--retries", "2"]) == 1
        assert capsys.readouterr().err.count("FAIL\t") == 5

    def test_bad_fault_spec_is_usage_error(self, bell_file, capsys):
        assert run_main([bell_file, "--inject-fault", "gate,nope=1"]) == 2
        assert "error" in capsys.readouterr().err


class TestQirRunSchedulers:
    def test_threaded_scheduler_is_a_usage_error(self, bell_file, capsys):
        with pytest.raises(SystemExit) as exited:
            run_main([bell_file, "--shots", "10",
                      "--scheduler", "threaded", "--jobs", "2"])
        assert exited.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

    def test_schedulers_agree_on_counts(self, tmp_path, capsys):
        # reset_chain is fastpath-ineligible, so every scheduler really
        # runs per-shot (or batched) execution and counts must agree.
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        outputs = []
        for flags in (["--scheduler", "serial"],
                      ["--scheduler", "process", "--jobs", "2"],
                      ["--scheduler", "batched"],
                      ["--scheduler", "auto"],
                      []):
            assert run_main([str(path), "--shots", "80", "--seed", "5",
                             *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_jobs_with_serial_is_usage_error(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "10", "--jobs", "4"]) == 2
        err = capsys.readouterr().err
        assert "jobs > 1 requires the process scheduler" in err
        assert "auto never spawns workers" in err

    def test_auto_is_the_default_scheduler(self):
        from repro.tools.qir_run import build_parser

        args = build_parser().parse_args(["prog.ll"])
        assert args.scheduler == "auto"
        assert "auto (default" in build_parser().format_help()

    def test_nonpositive_jobs_is_usage_error(self, bell_file, capsys):
        assert run_main([bell_file, "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_profile_shows_cache_and_scheduler_sections(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "20", "--seed", "7",
                         "--scheduler", "batched", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "-- compile & cache --" in err
        assert "cache.plan.miss" in err
        assert "-- scheduler --" in err
        assert "runs[batched]" in err

    def test_profile_explains_the_auto_choice(self, tmp_path, capsys):
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        assert run_main([str(path), "--shots", "20", "--seed", "7",
                         "--profile"]) == 0
        err = capsys.readouterr().err
        assert "fast path declined x1: reset after measurement" in err
        assert "auto chose batched x1: width<=" in err

    def test_chunk_shots_keeps_counts_identical(self, tmp_path, capsys):
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        outputs = []
        for flags in ([],
                      ["--scheduler", "process", "--jobs", "2",
                       "--chunk-shots", "7"],
                      ["--scheduler", "process", "--jobs", "2",
                       "--min-chunk-shots", "3"]):
            assert run_main([str(path), "--shots", "40", "--seed", "5",
                             *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_chunk_knobs_require_a_queue_scheduler(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "10",
                         "--chunk-shots", "4"]) == 2
        assert "chunk_shots" in capsys.readouterr().err
        assert run_main([bell_file, "--shots", "10",
                         "--scheduler", "batched",
                         "--min-chunk-shots", "2"]) == 2
        assert "require the process scheduler" in capsys.readouterr().err

    def test_nonpositive_chunk_sizes_are_usage_errors(self, bell_file, capsys):
        assert run_main([bell_file, "--scheduler", "process",
                         "--jobs", "2", "--chunk-shots", "0"]) == 2
        assert "chunk_shots must be >= 1" in capsys.readouterr().err
        assert run_main([bell_file, "--scheduler", "process",
                         "--jobs", "2", "--min-chunk-shots", "0"]) == 2
        assert "min_chunk_shots must be >= 1" in capsys.readouterr().err

    def test_jobs_one_normalizes_away_chunk_knobs(self, bell_file, capsys):
        # The serial-normalization path must clear the queue knobs too,
        # or run_shots would reject chunk sizing on the serial scheduler.
        assert run_main([bell_file, "--shots", "10", "--seed", "2",
                         "--scheduler", "process", "--jobs", "1",
                         "--chunk-shots", "4"]) == 0
        assert "runs serially" in capsys.readouterr().err


class TestQirRunObservability:
    def test_profile_table_on_stderr(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "10", "--seed", "7",
                         "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== qir profile ==" in err
        assert "-- parse --" in err
        assert "-- runtime --" in err
        assert "-- intrinsics --" in err
        assert "__quantum__qis__h__body" in err

    def test_trace_file_is_chrome_loadable(self, bell_file, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        assert run_main([bell_file, "--shots", "5", "--seed", "7",
                         "--trace", str(trace)]) == 0
        document = json.loads(trace.read_text())
        names = [e["name"] for e in document["traceEvents"]]
        assert "parse_assembly" in names
        assert "run_shots" in names

    def test_trace_jsonl_extension(self, bell_file, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        assert run_main([bell_file, "--seed", "7", "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines
        assert all(json.loads(line)["ph"] in ("X", "i") for line in lines)

    def test_metrics_file_structure(self, bell_file, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        assert run_main([bell_file, "--shots", "10", "--seed", "7",
                         "--metrics", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["runtime.shots.requested"] == 10
        assert any(k.startswith("runtime.intrinsic_calls{")
                   for k in snapshot["counters"])
        assert "runtime.run_seconds" in snapshot["histograms"]

    def test_opt_flag_runs_pipeline_before_execution(self, loop_file, tmp_path,
                                                     capsys):
        import json

        metrics = tmp_path / "m.json"
        assert run_main([loop_file, "--opt", "unroll", "--seed", "7",
                         "--metrics", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        pass_keys = [k for k in snapshot["counters"]
                     if k.startswith("passes.runs{")]
        assert any("loop-unroll" in k for k in pass_keys)
        assert any(k.startswith("runtime.intrinsic_calls{")
                   for k in snapshot["counters"])

    def test_unknown_opt_pipeline_is_usage_error(self, bell_file, capsys):
        assert run_main([bell_file, "--opt", "warpdrive"]) == 2
        assert "unknown pipeline" in capsys.readouterr().err

    def test_timing_line_on_multi_shot(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "20", "--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert "TIMING\twall=" in err
        assert "shots/sec=" in err

    def test_single_shot_has_no_timing_line(self, bell_file, capsys):
        assert run_main([bell_file, "--seed", "7"]) == 0
        assert "TIMING" not in capsys.readouterr().err

    def test_failure_report_includes_timing(self, bell_file, capsys):
        assert run_main(
            [bell_file, "--shots", "20", "--seed", "6",
             "--inject-fault", "gate,shots=1:2"]
        ) == 0
        err = capsys.readouterr().err
        assert "FAIL\t" in err
        assert err.count("TIMING\twall=") == 1

    def test_trace_dash_streams_jsonl_to_stdout(self, bell_file, capsys):
        import json

        assert run_main([bell_file, "--shots", "5", "--seed", "7",
                         "--trace", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # Shot histogram lines first, then the trace JSONL appended.
        events = []
        for line in lines:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        names = [e["name"] for e in events]
        assert "parse_assembly" in names
        assert "run_shots" in names
        assert all(e["ph"] in ("X", "i") for e in events)

    def test_no_flags_means_no_observer_files(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "5", "--seed", "7"]) == 0
        assert "== qir profile ==" not in capsys.readouterr().err


class TestQirOptObservability:
    def test_profile_table_shows_passes(self, loop_file, capsys):
        assert opt_main([loop_file, "--pipeline", "unroll", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== qir profile ==" in err
        assert "-- passes --" in err
        assert "loop-unroll" in err

    def test_trace_and_metrics_files(self, loop_file, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert opt_main([loop_file, "--pipeline", "o1",
                         "--trace", str(trace),
                         "--metrics", str(metrics)]) == 0
        document = json.loads(trace.read_text())
        assert any(e["name"].startswith("pass:")
                   for e in document["traceEvents"])
        snapshot = json.loads(metrics.read_text())
        assert any(k.startswith("passes.seconds{")
                   for k in snapshot["counters"])

    def test_trace_dash_streams_jsonl_to_stdout(self, loop_file, capsys):
        import json

        assert opt_main([loop_file, "--pipeline", "unroll",
                         "--trace", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # The printed module comes first; the trace JSONL is appended.
        events = []
        for line in lines:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        assert any(e["name"].startswith("pass:") for e in events)
        assert all(e["ph"] in ("X", "i") for e in events)

    def test_profile_written_even_on_validation_failure(self, loop_file,
                                                        capsys):
        assert opt_main([loop_file, "--validate", "base_profile",
                         "--profile"]) == 3
        assert "== qir profile ==" in capsys.readouterr().err


class TestQirOpt:
    def test_pipeline_unroll(self, loop_file, capsys):
        assert opt_main([loop_file, "--pipeline", "unroll"]) == 0
        out = capsys.readouterr().out
        assert "br " not in out
        assert out.count("__quantum__qis__h__body(ptr") == 5  # 4 calls + declare

    def test_individual_passes(self, loop_file, capsys):
        assert opt_main([loop_file, "-p", "mem2reg,constprop,dce"]) == 0
        out = capsys.readouterr().out
        assert "alloca" not in out

    def test_unknown_pass(self, loop_file, capsys):
        assert opt_main([loop_file, "-p", "hyperdrive"]) == 1

    def test_passes_and_pipeline_conflict(self, loop_file):
        assert opt_main([loop_file, "-p", "dce", "--pipeline", "o1"]) == 1

    def test_validation_failure_exit_code(self, loop_file):
        assert opt_main([loop_file, "--validate", "base_profile"]) == 3

    def test_lower_static_then_validates(self, loop_file, capsys):
        assert (
            opt_main(
                [loop_file, "--pipeline", "lower-static", "--validate", "base_profile"]
            )
            == 0
        )

    def test_output_file(self, loop_file, tmp_path, capsys):
        out_path = tmp_path / "out.ll"
        assert opt_main(
            [loop_file, "--pipeline", "unroll", "-o", str(out_path)]
        ) == 0
        from repro.llvmir import parse_assembly, verify_module

        verify_module(parse_assembly(out_path.read_text()))

    def test_stats_flag(self, loop_file, capsys):
        assert opt_main([loop_file, "--pipeline", "o1", "--stats"]) == 0
        assert "constprop" in capsys.readouterr().err

    def test_noop_invocation_roundtrips(self, bell_file, capsys):
        assert opt_main([bell_file]) == 0
        out = capsys.readouterr().out
        assert "__quantum__qis__h__body" in out


class TestQirTranslate:
    def test_qasm2_to_qir(self, tmp_path, capsys):
        path = tmp_path / "bell.qasm"
        path.write_text(QASM)
        assert translate_main([str(path), "--to", "qir"]) == 0
        out = capsys.readouterr().out
        assert "__quantum__qis__cnot__body" in out

    def test_qir_to_qasm2(self, bell_file, capsys):
        assert translate_main([bell_file, "--to", "qasm2"]) == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out
        assert "cx q[0],q[1];" in out

    def test_format_inference(self, tmp_path, capsys):
        qasm3 = tmp_path / "p.qasm"
        qasm3.write_text(
            "OPENQASM 3;\nqubit[2] q;\nbit[2] c;\n"
            "for uint i in [0:1] { h q[i]; }\nc[0] = measure q[0];"
        )
        assert translate_main([str(qasm3), "--to", "qir"]) == 0
        out = capsys.readouterr().out
        assert out.count("call void @__quantum__qis__h__body") == 2

    def test_dynamic_addressing_output(self, tmp_path, capsys):
        path = tmp_path / "bell.qasm"
        path.write_text(QASM)
        assert translate_main(
            [str(path), "--to", "qir", "--addressing", "dynamic"]
        ) == 0
        assert "qubit_allocate_array" in capsys.readouterr().out

    def test_adaptive_qir_to_qasm2(self, tmp_path, capsys):
        from repro.workloads.qec import teleportation_qir

        path = tmp_path / "teleport.ll"
        path.write_text(teleportation_qir())
        assert translate_main([str(path), "--to", "qasm2"]) == 0
        out = capsys.readouterr().out
        assert "if(" in out  # conditionals survive as QASM2 ifs

    def test_untranslatable_input(self, tmp_path, capsys):
        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert translate_main([str(path), "--to", "qasm2"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_roundtrip_via_files(self, tmp_path, capsys):
        qasm_path = tmp_path / "bell.qasm"
        qasm_path.write_text(QASM)
        qir_path = tmp_path / "bell.ll"
        assert translate_main(
            [str(qasm_path), "--to", "qir", "-o", str(qir_path)]
        ) == 0
        assert translate_main([str(qir_path), "--to", "qasm2"]) == 0
        out = capsys.readouterr().out
        assert "h q[0];" in out


class TestReuseLoweringPipeline:
    def test_lower_static_reuse_via_cli(self, tmp_path, capsys):
        churn = []
        for i in range(4):
            churn.append(f"  %q{i} = call ptr @__quantum__rt__qubit_allocate()")
            churn.append(f"  call void @__quantum__qis__h__body(ptr %q{i})")
            churn.append(f"  call void @__quantum__rt__qubit_release(ptr %q{i})")
        src = (
            "define void @main() #0 {\nentry:\n"
            + "\n".join(churn)
            + "\n  ret void\n}\n"
            "declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__rt__qubit_release(ptr)\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            'attributes #0 = { "entry_point" }\n'
        )
        path = tmp_path / "churn.ll"
        path.write_text(src)
        assert opt_main([str(path), "--pipeline", "lower-static-reuse"]) == 0
        out = capsys.readouterr().out
        assert '"required_num_qubits"="1"' in out
        assert opt_main([str(path), "--pipeline", "lower-static"]) == 0
        out = capsys.readouterr().out
        assert '"required_num_qubits"="4"' in out


class TestQirRunProcessScheduler:
    def test_process_scheduler_histogram(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "60", "--seed", "2",
                         "--scheduler", "process", "--jobs", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        counts = {k: int(v) for k, v in (line.split("\t") for line in lines)}
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == 60

    def test_process_counts_match_serial(self, tmp_path, capsys):
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        outputs = []
        for flags in (["--scheduler", "serial"],
                      ["--scheduler", "process", "--jobs", "3"]):
            assert run_main([str(path), "--shots", "45", "--seed", "5",
                             *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scheduler", ["process"])
    def test_one_job_normalizes_to_serial_with_note(
        self, scheduler, bell_file, capsys
    ):
        # --jobs 1 with the process scheduler runs serially and says so,
        # instead of spinning up a one-worker pool.
        assert run_main([bell_file, "--shots", "30", "--seed", "2",
                         "--scheduler", scheduler, "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "runs serially" in captured.err
        lines = captured.out.strip().splitlines()
        counts = {k: int(v) for k, v in (line.split("\t") for line in lines)}
        assert sum(counts.values()) == 30

    def test_one_job_serial_counts_match_plain_serial(self, bell_file, capsys):
        assert run_main([bell_file, "--shots", "30", "--seed", "9",
                         "--scheduler", "process", "--jobs", "1"]) == 0
        degraded = capsys.readouterr().out
        assert run_main([bell_file, "--shots", "30", "--seed", "9"]) == 0
        assert capsys.readouterr().out == degraded


class TestQirRunSupervision:
    def test_chaos_crash_run_matches_serial_bit_identically(
        self, tmp_path, capsys
    ):
        # The CI chaos smoke in miniature: a process run that loses
        # workers must finish with exit 0 and the same histogram as a
        # serial run under the same fault plan (process sites are inert
        # off-process, so the serial arm is the clean reference).
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        fault = "worker_crash,p=1.0,failures=1"
        assert run_main([str(path), "--shots", "24", "--seed", "5",
                         "--scheduler", "serial",
                         "--inject-fault", fault]) == 0
        serial = capsys.readouterr().out
        assert run_main([str(path), "--shots", "24", "--seed", "5",
                         "--scheduler", "process", "--jobs", "4",
                         "--inject-fault", fault]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "SUPERVISOR\tstate=degraded" in captured.err

    def test_chaos_run_metrics_record_redispatch(self, tmp_path, capsys):
        import json

        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        metrics = tmp_path / "m.json"
        assert run_main([str(path), "--shots", "16", "--seed", "3",
                         "--scheduler", "process", "--jobs", "4",
                         "--inject-fault", "worker_crash,p=1.0,failures=1",
                         "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["scheduler.worker.crash"] > 0
        assert counters["scheduler.worker.redispatch"] > 0

    def test_supervision_flags_require_process_scheduler(
        self, bell_file, capsys
    ):
        assert run_main([bell_file, "--shots", "10",
                         "--worker-timeout", "2.0"]) == 2
        assert "require the process scheduler" in capsys.readouterr().err
        assert run_main([bell_file, "--shots", "10", "--scheduler", "batched",
                         "--max-worker-failures", "3"]) == 2
        assert "require the process scheduler" in capsys.readouterr().err

    def test_invalid_supervision_values_are_usage_errors(
        self, bell_file, capsys
    ):
        assert run_main([bell_file, "--shots", "10", "--scheduler", "process",
                         "--jobs", "2", "--worker-timeout", "0"]) == 2
        assert "worker_timeout must be > 0" in capsys.readouterr().err
        assert run_main([bell_file, "--shots", "10", "--scheduler", "process",
                         "--jobs", "2", "--max-worker-failures", "0"]) == 2
        assert "max_worker_failures must be >= 1" in capsys.readouterr().err

    def test_supervision_flags_accepted_on_clean_run(self, tmp_path, capsys):
        path = tmp_path / "chain.ll"
        path.write_text(reset_chain_qir(2, rounds=2))
        assert run_main([str(path), "--shots", "12", "--seed", "1",
                         "--scheduler", "process", "--jobs", "2",
                         "--worker-timeout", "30", "--max-worker-failures",
                         "4"]) == 0
        captured = capsys.readouterr()
        # Healthy run: no supervisor complaint on stderr.
        assert "SUPERVISOR" not in captured.err


class TestQirRunPlanCache:
    def test_miss_then_hit_across_invocations(self, bell_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "plans")
        assert run_main([bell_file, "--shots", "10", "--seed", "3",
                         "--plan-cache", cache_dir]) == 0
        first = capsys.readouterr().err
        assert f"plan-cache: miss ({cache_dir})" in first
        assert run_main([bell_file, "--shots", "10", "--seed", "3",
                         "--plan-cache", cache_dir]) == 0
        second = capsys.readouterr().err
        assert f"plan-cache: hit ({cache_dir})" in second

    def test_cached_run_output_is_identical(self, loop_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "plans")
        args = [loop_file, "--shots", "20", "--seed", "4", "--opt", "unroll",
                "--plan-cache", cache_dir]
        assert run_main(args) == 0
        cold = capsys.readouterr().out
        assert run_main(args) == 0
        assert capsys.readouterr().out == cold

    def test_no_flag_means_no_cache_lines(self, bell_file, capsys, monkeypatch):
        monkeypatch.delenv("QIR_PLAN_CACHE", raising=False)
        assert run_main([bell_file, "--shots", "10", "--seed", "3"]) == 0
        assert "plan-cache" not in capsys.readouterr().err
