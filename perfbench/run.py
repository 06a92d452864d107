"""End-to-end request benchmark of the QIR toolchain.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` for the set and the rationale)
as a closed loop with one client for ``--seconds`` seconds, checks every
request's histogram against an independent reference, prints each
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation.  ``--trace 1`` reports the per-layer metrics: the run
serves the stream untraced for half the time, then serves the same
requests again with layer spans recorded, and compares the two walls
for ``obs.trace_overhead_fraction``.

End-to-end times are reported at a reference machine speed: each run
times a fixed calibration workload between its requests and scales its
timings by a damped calibration factor (see ``calibrate.py`` for the
evidence behind it); the raw times are printed beside them.

Runs are hermetic: ``QIR_PLAN_CACHE``, ``QIR_LEDGER`` and
``PYTHONDONTWRITEBYTECODE`` are removed from the environment, each run
gets fresh plan-cache directories under ``.perfbench-tmp/`` (deleted at
exit), and children run with this interpreter on this tree's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STRIPPED_ENV = ("QIR_PLAN_CACHE", "QIR_LEDGER", "PYTHONDONTWRITEBYTECODE")

for _name in STRIPPED_ENV:
    os.environ.pop(_name, None)
sys.dont_write_bytecode = False
sys.path.insert(0, str(SRC))

from calibrate import (  # noqa: E402
    REFERENCE_COMPUTE_S,
    REFERENCE_PROCESS_S,
    Calibration,
    compute_sample,
    process_sample,
)
from layers import KernelReplay, TracedRequest, layer_metrics  # noqa: E402
from reference import ReferenceCache  # noqa: E402
from spans import TIERS, Recorder, Span, span_from_json, span_to_json, tier_of  # noqa: E402
from stats import median, tail_percentile  # noqa: E402
from workloads import LAYER_MAP, STREAMS, cli_pool, cli_stream  # noqa: E402

CHILD_TIMEOUT_S = 60
#: Fresh-interpreter set-ups per in-process run (median reported).
SETUP_REPEATS = 5
#: Untimed warm-up requests per cli_cold run (median reported as set-up).
CLI_WARMUPS = 5
#: Seconds between calibration samples during the measured window.
PROCESS_CALIBRATION_EVERY_S = 3.0
COMPUTE_CALIBRATION_EVERY_S = 0.5
#: Untimed requests (of the run's own stream, at few shots) served by a
#: throwaway session before timing, so lazy imports and first-use set-up
#: inside the program land outside the measured window.
WARMUP_REQUESTS = 15
WARMUP_SHOTS = 16
#: The tail percentile printed where the run has enough requests for it.
TAIL_Q = 90


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    """One served request, as the client saw it."""

    program: str
    latency: float
    shots: int = 0
    error: Optional[str] = None
    mismatch: bool = False
    tier: Optional[str] = None
    plan_hit: Optional[bool] = None
    traced: Optional[TracedRequest] = None


@dataclass
class RunResult:
    untraced: List[Outcome]
    #: Raw set-up times, and the calibration factors that scale set-up and
    #: request times to the reference speed (see calibrate.py).
    setups: List[float]
    setup_factor: float
    request_factor: float = 1.0
    peak_rss_mb: float = 0.0
    traced: List[Outcome] = field(default_factory=list)
    #: In-process workloads' startup layer, measured in set-up.
    startup: Optional[Dict[str, float]] = None
    notes: List[str] = field(default_factory=list)


def closed_loop(
    stream: Iterator,
    serve: Callable[[object], Outcome],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> List[Outcome]:
    """Serve requests one after another until ``seconds`` have passed
    (the request in flight completes) or ``count`` requests are done,
    taking due calibration samples between requests."""
    outcomes: List[Outcome] = []
    start = perf_counter()
    for request in stream:
        if count is not None and len(outcomes) >= count:
            break
        if seconds is not None and outcomes and perf_counter() - start >= seconds:
            break
        if calibration is not None:
            calibration.maybe_take()
        outcomes.append(serve(request))
    return outcomes


def check(outcome: Outcome, request, counts: Dict[str, int], refs) -> Outcome:
    reason = refs.get(request.text, request.ref).check(counts, request.shots)
    if reason is not None:
        outcome.error = f"reference mismatch: {reason}"
        outcome.mismatch = True
    else:
        outcome.shots = request.shots
    return outcome


def traced_request(outcome: Outcome, request, spans, replay, plan) -> TracedRequest:
    """A traced request plus the measurements taken outside it: the
    kernel replay and the IR size before and after its pipeline."""
    from repro.llvmir.parser import parse_assembly
    from repro.passes.manager import count_instructions

    traced = TracedRequest(outcome.latency, spans)
    if outcome.tier is not None:
        traced.kernel_s, traced.gates = replay.per_request(
            (plan.key, request.pipeline), plan, outcome.tier, request.shots
        )
    if request.pipeline is not None:
        before = count_instructions(parse_assembly(request.text))
        traced.ir_sizes = (before, count_instructions(plan.module))
    return traced


# -- in-process workloads ----------------------------------------------------------


def process_calibration() -> Calibration:
    return Calibration(
        lambda: process_sample(child_env(), str(ROOT)),
        REFERENCE_PROCESS_S,
        PROCESS_CALIBRATION_EVERY_S,
    )


def measure_setup() -> Tuple[List[float], float, Dict[str, float]]:
    """Fresh-interpreter ``import repro`` + session construction times,
    their calibration factor (a process sample beside each), and the
    startup layer times of the same children."""
    totals, boots, imports = [], [], []
    calibration = process_calibration()
    for _ in range(SETUP_REPEATS):
        calibration.take()
        spawned = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup"],
            env=child_env(),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(row["import_s"] + row["session_s"])
        boots.append(row["boot"] - spawned)
        imports.append(row["import_s"])
    startup = {"startup.interpreter_s": median(boots), "startup.import_s": median(imports)}
    return totals, calibration.factor(), startup


def session_server(seed: int, refs, recorder: Optional[Recorder] = None):
    from repro.runtime import QirSession

    session = QirSession(seed=seed)
    replay = KernelReplay()

    def serve(request) -> Outcome:
        start = perf_counter()
        try:
            result = session.run_shots(
                request.text, shots=request.shots, pipeline=request.pipeline
            )
        except Exception as error:  # a failed request, counted and reported
            outcome = Outcome(request.program, perf_counter() - start)
            outcome.error = f"raised {type(error).__name__}: {error}"
            if recorder is not None:
                recorder.take()
            return outcome
        outcome = Outcome(request.program, perf_counter() - start)
        outcome.tier = tier_of(result)
        if recorder is not None:
            spans = recorder.take()
            plan = next(s.info["plan"] for s in spans if s.name.startswith("runtime.execute."))
            outcome.traced = traced_request(outcome, request, spans, replay, plan)
            # Keep plain data only: live plans would grow the process.
            outcome.traced.spans = [span_from_json(span_to_json(s)) for s in spans]
        check(outcome, request, result.counts, refs)
        if recorder is not None:
            recorder.take()  # spans of the out-of-request work above
        return outcome

    return session, serve


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    refs = ReferenceCache()
    setups, setup_factor, startup = measure_setup()
    stream = STREAMS[workload]
    _, serve = session_server(seed, refs)
    for request in islice(stream(seed), WARMUP_REQUESTS):
        outcome = serve(replace(request, shots=WARMUP_SHOTS))
        if outcome.error is not None:
            raise RuntimeError(f"warm-up request failed: {outcome.error}")
    session, serve = session_server(seed, refs)
    calibration = Calibration(compute_sample, REFERENCE_COMPUTE_S, COMPUTE_CALIBRATION_EVERY_S)
    untraced = closed_loop(
        stream(seed),
        serve,
        seconds=seconds / 2 if trace else seconds,
        calibration=None if trace else calibration,
    )
    plan_stats = session.cache_stats()["plan"]
    run = RunResult(
        untraced,
        setups,
        setup_factor,
        request_factor=1.0 if trace else calibration.factor(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        startup=startup,
        notes=[
            "untraced session plan-cache hit ratio: "
            f"{plan_stats['hits'] / max(1, plan_stats['hits'] + plan_stats['misses']):.3f}"
        ],
    )
    if trace:
        recorder = Recorder().install()
        try:
            _, serve = session_server(seed, refs, recorder)
            run.traced = closed_loop(stream(seed), serve, count=len(untraced))
        finally:
            recorder.uninstall()
    return run


# -- cli_cold -----------------------------------------------------------------------


def _parse_counts(stdout: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for line in stdout.splitlines():
        bits, _, count = line.partition("\t")
        if bits and count.isdigit() and set(bits) <= {"0", "1"}:
            counts[bits] = int(count)
    return counts


def cli_server(run_dir: Path, files: Dict[str, str], refs, traced_mode: bool = False):
    """Serves each request as a fresh ``qir-run`` process sharing one
    plan-cache directory (fresh per server)."""
    from repro.runtime.plan import compile_plan

    cache_dir = tempfile.mkdtemp(prefix="plans-", dir=run_dir)
    spans_path = run_dir / "spans.json"
    plans: Dict[Tuple[str, Optional[str]], object] = {}
    replay = KernelReplay()

    def serve(request) -> Outcome:
        argv = [
            files[request.text],
            "--shots", str(request.shots),
            "--seed", str(request.seed),
            "--plan-cache", cache_dir,
        ]
        if request.pipeline:
            argv += ["--opt", request.pipeline]
        if traced_mode:
            cmd = [sys.executable, str(HERE / "child.py"), "qir-run", str(spans_path)]
            spans_path.unlink(missing_ok=True)
        else:
            cmd = [sys.executable, "-m", "repro.tools.qir_run"]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd + argv,
                env=child_env(),
                cwd=str(run_dir),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Outcome(request.program, perf_counter() - start, error="timed out")
        end = perf_counter()
        outcome = Outcome(request.program, end - start)
        if proc.returncode != 0:
            outcome.error = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            return outcome
        outcome.plan_hit = "plan-cache: hit" in proc.stderr
        if traced_mode:
            spans = _child_spans(spans_path, start, end)
            executes = [s for s in spans if s.name.startswith("runtime.execute.")]
            if executes:
                outcome.tier = executes[-1].name.rsplit(".", 1)[1]
            key = (request.text, request.pipeline)
            if key not in plans:
                plans[key] = compile_plan(
                    request.text, pipeline=request.pipeline, verify=False
                )
            outcome.traced = traced_request(outcome, request, spans, replay, plans[key])
        return check(outcome, request, _parse_counts(proc.stdout), refs)

    return serve


def _child_spans(spans_path: Path, start: float, end: float) -> List[Span]:
    """The child's spans, plus interpreter start-up (spawn to the child's
    first statement) and process exit (trace flush to the parent seeing
    the exit)."""
    with open(spans_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    spans = [span_from_json(row) for row in data["spans"]]
    spans.append(Span("startup.interpreter", start, data["boot"]))
    spans.append(Span("process.exit", data["exit"], end))
    return spans


def run_cli(seed: int, seconds: float, trace: bool, run_dir: Path) -> RunResult:
    refs = ReferenceCache()
    pool = cli_pool(seed)
    files: Dict[str, str] = {}
    for index, request in enumerate(pool):
        path = run_dir / f"{index}_{request.program}.ll"
        path.write_text(request.text, encoding="utf-8")
        files[request.text] = str(path)

    warmups = []
    setup_calibration = process_calibration()
    for _ in range(CLI_WARMUPS):
        setup_calibration.take()
        outcome = cli_server(run_dir, files, refs)(pool[0])
        if outcome.error is not None:
            raise RuntimeError(f"warm-up request failed: {outcome.error}")
        warmups.append(outcome.latency)

    serve = cli_server(run_dir, files, refs)
    calibration = process_calibration()
    untraced = closed_loop(
        cli_stream(seed),
        serve,
        seconds=seconds / 2 if trace else seconds,
        calibration=None if trace else calibration,
    )
    run = RunResult(
        untraced,
        warmups,
        setup_calibration.factor(),
        request_factor=1.0 if trace else calibration.factor(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    )
    if trace:
        serve = cli_server(run_dir, files, refs, traced_mode=True)
        run.traced = closed_loop(cli_stream(seed), serve, count=len(untraced))
    return run


# -- reporting ----------------------------------------------------------------------


def end_to_end(run: RunResult, setup_factor: float, request_factor: float):
    """The end-to-end metrics, with set-up and request times scaled by
    the given factors (1.0 for the raw values)."""
    busy = sum(o.latency for o in run.untraced) * request_factor
    return {
        "setup_s": (median(run.setups) * setup_factor, "s"),
        "requests_per_s": (len(run.untraced) / busy, "1/s"),
        "latency_p50_s": (median([o.latency for o in run.untraced]) * request_factor, "s"),
        "shots_per_s": (sum(o.shots for o in run.untraced) / busy, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def accounting_lines(label: str, outcomes: List[Outcome]) -> List[str]:
    """Tier mix and disk plan-cache hit ratio of one set of requests."""
    tiers = [o.tier for o in outcomes if o.tier is not None]
    if tiers:
        mix = ", ".join(f"{t} {tiers.count(t) / len(tiers):.3f}" for t in TIERS)
        lines = [f"{label} tier mix: {mix}"]
    else:
        lines = [f"{label} tier mix: not observable without tracing the child"]
    hits = [o.plan_hit for o in outcomes if o.plan_hit is not None]
    if hits:
        lines.append(f"{label} disk plan-cache hit ratio: {sum(hits) / len(hits):.3f}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {SRC}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro resolved outside {SRC}: {repro.__file__}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.workload == "cli_cold":
            run = run_cli(args.seed, args.seconds, trace, run_dir)
        else:
            run = run_in_process(args.workload, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = run.untraced + run.traced
    failed = [o for o in everything if o.error is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"requests {len(everything)} attempted, {len(failed)} failed "
        f"({sum(o.mismatch for o in failed)} reference mismatches)"
    )
    for outcome in failed[:5]:
        print(f"  failed {outcome.program}: {outcome.error}")
    for line in accounting_lines("untraced", run.untraced) + run.notes:
        print(line)

    if not trace:
        metrics = end_to_end(run, run.setup_factor, run.request_factor)
        raw = end_to_end(run, 1.0, 1.0)
        print(
            f"calibration factors: set-up {run.setup_factor:.4f}, "
            f"requests {run.request_factor:.4f} (times below are at the "
            "reference speed; raw measurements in brackets)"
        )
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}  [raw {raw[name][0]:.6g}]")
        tail = tail_percentile([o.latency for o in run.untraced], TAIL_Q)
        if tail is None:
            print(
                f"latency_p{TAIL_Q}_s not reported: {len(run.untraced)} requests "
                f"leave fewer than 10 beyond p{TAIL_Q}"
            )
        else:
            print(f"latency_p{TAIL_Q}_s {tail:.6g} s")
    else:
        for line in accounting_lines("traced", run.traced):
            print(line)
        untraced_wall = sum(o.latency for o in run.untraced)
        traced_wall = sum(o.latency for o in run.traced)
        metrics = layer_metrics(
            [o.traced for o in run.traced if o.traced is not None],
            traced_wall / untraced_wall - 1,
            run.startup,
        )
        for name, (value, unit) in metrics.items():
            moves = LAYER_MAP.get(name)
            note = f"  (moves {moves[0]} on {moves[1]})" if moves else ""
            print(f"{name} {value:.6g} {unit}{note}")

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(everything),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
