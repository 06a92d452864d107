"""End-to-end tests for the qir-bench CLI (run / diff / check)."""

import json

import pytest

from repro.obs.snapshot import SCHEMA_VERSION
from repro.tools.qir_bench import main as bench_main
from repro.tools.qir_opt import main as opt_main
from repro.workloads.qir_programs import bell_qir


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    """A real (fast) suite run written to disk, shared by the read-only
    tests of this module."""
    directory = tmp_path_factory.mktemp("bench")
    path = str(directory / "a.json")
    code = bench_main(
        ["run", "-o", path, "--repeats", "2", "--shots", "10",
         "--examples-dir", str(directory / "missing")]
    )
    assert code == 0
    return path


class TestRun:
    def test_writes_schema_versioned_snapshot(self, snapshot_file, capsys):
        payload = json.loads(open(snapshot_file).read())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["group"] == "qir-bench"
        assert "python" in payload["environment"]
        # The snapshot joins against ledger rows via its own run id.
        from repro.obs.runctx import is_run_id

        assert is_run_id(payload["environment"]["run_id"])
        names = [r["name"] for r in payload["records"]]
        # All three suites contributed.
        assert any(n.startswith("parse.") for n in names)
        assert any(n.startswith("passes.o1.") for n in names)
        assert any(n.startswith("passes.unroll.") for n in names)
        assert any(n.startswith("runtime.ex5.") for n in names)
        # Median-of-k spread and units on every timing record.
        for record in payload["records"]:
            assert record["unit"]
            if record["name"].endswith(".seconds"):
                assert record["k"] == 2
                assert record["min"] <= record["median"] <= record["max"]

    def test_records_fastpath_speedup_ratio(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.ex5.ghz10.fastpath_speedup"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "higher"
        assert record["value"] > 1.0  # sampling beats per-shot re-interpretation

    def test_records_scheduler_speedups(self, snapshot_file):
        # Acceptance: batched multi-shot evolution beats per-shot serial
        # interpretation on the non-Clifford reset-chain workload.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        batched = by_name["runtime.scheduler.batched_speedup"]
        assert batched["unit"] == "ratio"
        assert batched["direction"] == "higher"
        assert batched["value"] > 1.0
        assert "runtime.scheduler.threaded_speedup" not in by_name
        assert by_name["runtime.scheduler.serial_shots_per_second"]["value"] > 0

    def test_records_auto_ratio_per_width(self, snapshot_file):
        from repro.runtime import AUTO_BATCHED_MAX_QUBITS

        payload = json.loads(open(snapshot_file).read())
        cells = [
            r for r in payload["records"] if r["name"] == "runtime.scheduler.auto_ratio"
        ]
        assert sorted(r["metadata"]["width"] for r in cells) == [4, 8, 10, 12, 14]
        for record in cells:
            meta = record["metadata"]
            assert record["unit"] == "ratio"
            assert record["direction"] == "higher"
            assert record["k"] >= 5
            assert record["value"] > 0
            narrow = meta["width"] <= AUTO_BATCHED_MAX_QUBITS
            assert meta["choice"] == ("batched" if narrow else "serial")
            # Shots are sized on single cold runs, so warm medians may dip
            # a little under the 50 ms target.
            assert min(meta["serial_seconds"], meta["batched_seconds"]) >= 0.025

    def test_records_worker_imbalance(self, snapshot_file):
        # The work-stealing evidence: slowest / median worker busy time
        # from a real traced process run; 1.0 means perfectly balanced.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.worker_imbalance"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "lower"
        assert record["value"] >= 1.0
        assert record["metadata"]["workers"] >= 2

    def test_records_queue_imbalance_with_contiguous_baseline(
        self, snapshot_file
    ):
        # The queue's case on the uneven (fault-retry skew) workload: the
        # record is the queue arm, and the contiguous arm it replaced
        # rides in the metadata so diffs can hold the improvement.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.queue_imbalance"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "lower"
        assert record["value"] >= 1.0
        assert record["metadata"]["contiguous_imbalance"] >= 1.0
        assert "uneven" in record["metadata"]["workload"]
        # Effective dispatch configuration is stamped into the
        # environment block alongside the run id.
        assert int(payload["environment"]["scheduler_jobs"]) >= 2
        assert payload["environment"]["chunk_sizing"] == "guided"

    def test_records_trace_analyze_seconds(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["obs.trace.analyze_seconds"]
        assert record["unit"] == "seconds"
        assert record["direction"] == "lower"
        assert record["k"] == 2
        assert record["value"] > 0
        assert record["metadata"]["spans"] > 0

    def test_records_process_speedup(self, snapshot_file):
        # Presence and shape only: the >1.0 win needs a multi-core
        # machine and is enforced by the CI regression gate, not here.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.process_speedup"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "higher"
        assert record["value"] > 0
        assert record["metadata"]["jobs"] >= 2

    def test_records_plan_cache_warm_speedup(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        warm = by_name["runtime.plan.disk_warm_speedup"]
        assert warm["unit"] == "ratio"
        assert warm["direction"] == "higher"
        assert warm["metadata"]["pipeline"] == "unroll"
        # Deserialization skips parse+verify+passes+analysis, so the warm
        # path wins even on a loaded single-core machine.
        assert warm["value"] > 1.0
        assert by_name["runtime.plan.cold_compile_seconds"]["value"] > 0
        assert by_name["runtime.plan.disk_warm_seconds"]["value"] > 0

    def test_examples_dir_parsed_when_present(self, tmp_path, capsys):
        (tmp_path / "bell.ll").write_text(bell_qir("static"))
        out = str(tmp_path / "snap.json")
        assert bench_main(
            ["run", "-o", out, "--repeats", "1", "--suite", "parse",
             "--examples-dir", str(tmp_path)]
        ) == 0
        names = [r["name"] for r in json.loads(open(out).read())["records"]]
        assert "parse.example_bell.seconds" in names
        assert "parse.example_bell.tokens_per_second" in names

    def test_stdout_when_no_output_file(self, capsys):
        assert bench_main(
            ["run", "--repeats", "1", "--suite", "passes",
             "--examples-dir", "does-not-exist"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["schema_version"] == SCHEMA_VERSION
        assert "qir-bench run" in captured.err

    def test_unknown_suite_rejected(self, capsys):
        assert bench_main(["run", "--suite", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestDiff:
    def test_self_diff_passes_with_table(self, snapshot_file, capsys):
        assert bench_main(["diff", snapshot_file, snapshot_file]) == 0
        err = capsys.readouterr().err
        assert "qir-bench diff" in err
        assert "-> PASS" in err

    def test_regression_exits_4_with_table(self, snapshot_file, tmp_path, capsys):
        payload = json.loads(open(snapshot_file).read())
        for record in payload["records"]:
            if record["name"] == "passes.unroll.counted_loop16.seconds":
                record["value"] *= 3
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(payload))
        assert bench_main(
            ["diff", snapshot_file, str(worse), "--threshold", "0.25"]
        ) == 4
        err = capsys.readouterr().err
        assert "regression" in err
        assert "passes.unroll.counted_loop16.seconds" in err

    def test_json_on_request(self, snapshot_file, capsys):
        assert bench_main(["diff", snapshot_file, snapshot_file, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["passed"] is True
        assert payload["exit_code"] == 0

    def test_record_threshold_override_rescues_noisy_record(
        self, snapshot_file, tmp_path, capsys
    ):
        payload = json.loads(open(snapshot_file).read())
        for record in payload["records"]:
            if record["name"] == "passes.o1.counted_loop16.seconds":
                record["value"] *= 2
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps(payload))
        assert bench_main(["diff", snapshot_file, str(noisy)]) == 4
        assert bench_main(
            ["diff", snapshot_file, str(noisy),
             "--record-threshold", "passes.o1.counted_loop16.seconds=2.0"]
        ) == 0

    def test_unreadable_snapshot_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert bench_main(["diff", missing, missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_legacy_unversioned_json_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"group": "obs", "records": []}))
        assert bench_main(["diff", str(legacy), str(legacy)]) == 2
        assert "schema_version" in capsys.readouterr().err


class TestCheck:
    def test_default_budgets_pass(self, capsys):
        assert bench_main(["check", "--strict"]) == 0
        assert "PASS" in capsys.readouterr().err

    def test_seeded_bust_fails_strict(self, capsys):
        assert bench_main(
            ["check", "--strict", "--budget", "loop-unroll=0.0"]
        ) == 4
        err = capsys.readouterr().err
        assert "budget bust" in err
        assert "loop-unroll" in err
        assert "FAIL" in err

    def test_seeded_bust_warns_without_strict(self, capsys):
        assert bench_main(["check", "--budget", "loop-unroll=0.0"]) == 0
        assert "WARN" in capsys.readouterr().err

    def test_pipeline_selection(self, capsys):
        # A loop-unroll bust cannot fire in the o1 pipeline (no such pass).
        assert bench_main(
            ["check", "--strict", "--pipeline", "o1",
             "--budget", "loop-unroll=0.0"]
        ) == 0

    def test_bad_budget_spec_is_usage_error(self, capsys):
        assert bench_main(["check", "--budget", "nonsense"]) == 2


class TestQirOptBudgetSurface:
    def test_seeded_bust_warns_in_profile_output(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main(
            [str(path), "--pipeline", "unroll", "--profile",
             "--budget", "loop-unroll=0.0", "-o", str(tmp_path / "out.ll")]
        ) == 0
        err = capsys.readouterr().err
        assert "qir-opt: warning: budget bust" in err
        assert "-- budget busts --" in err  # the --profile table section
        assert "loop-unroll" in err

    def test_no_warning_within_budget(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main(
            [str(path), "--pipeline", "unroll", "--profile",
             "-o", str(tmp_path / "out.ll")]
        ) == 0
        err = capsys.readouterr().err
        assert "budget bust" not in err

    def test_bad_budget_spec_rejected(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main([str(path), "--budget", "bad-spec"]) == 1
        assert "invalid budget spec" in capsys.readouterr().err
