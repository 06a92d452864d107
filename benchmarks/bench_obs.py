"""OBS: observability-layer overhead guards (ISSUE 2 tentpole).

Shape claims:

* the default *no-op* observer adds < 3% to the Ex. 5 per-shot runtime
  workload, measured against a hand-rolled shot loop that bypasses the
  observer plumbing entirely -- the instrumentation seams are free when
  unused;
* an *enabled* observer (per-shot latency histogram + per-intrinsic
  timing) stays within a small constant factor, cheap enough to switch on
  for any diagnostic run.

Timing discipline (ISSUE 3): every number is the median of k >= 5 timed
repetitions after warmup, taken in interleaved rounds
(``measure_interleaved``) so machine-load drift lands on both sides
alike, and the snapshot records min/median/max per side --
single-sample timings produced negative ``overhead_fraction`` values in
early ``BENCH_obs.json`` files.  The overhead ratio is computed
median-over-median.
"""

import numpy as np

from repro.llvmir import parse_assembly
from repro.obs import Observer
from repro.obs.snapshot import measure_interleaved
from repro.runtime import QirRuntime
from repro.runtime.interpreter import Interpreter
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.qir_programs import ghz_qir

from conftest import record_bench, report

SHOTS = 50
REPEATS = 9  # median-of-9 per side (>= the k=5 floor)
WARMUP = 2
NOOP_BUDGET = 1.03  # +3% -- the ISSUE-2 acceptance bound
ENABLED_BUDGET = 1.6  # generous: per-intrinsic clocks cost real time


def _module():
    return parse_assembly(ghz_qir(10, addressing="static"))


def _bare_loop(module, shots=SHOTS):
    """The pre-observability shot loop: backend + interpreter, nothing else."""
    rng = np.random.default_rng(7)
    counts = {}
    for _ in range(shots):
        backend = StatevectorSimulator(0, seed=int(rng.integers(2**63)), max_qubits=26)
        interp = Interpreter(module, backend)
        interp.run()
        bits = interp.output.result_bits()
        key = "".join(str(b) for b in reversed(bits))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _noop_loop(module, shots=SHOTS):
    """The production API with its default no-op observer."""
    return QirRuntime(seed=7).run_shots(
        module, shots=shots, sampling="never", scheduler="serial"
    )


def _enabled_loop(module, shots=SHOTS):
    observer = Observer()
    runtime = QirRuntime(seed=7, observer=observer)
    return runtime.run_shots(
        module, shots=shots, sampling="never", scheduler="serial"
    )


def test_noop_observer_overhead():
    """run_shots with the default no-op observer vs the bare loop: < 3%."""
    module = _module()
    stats = measure_interleaved(
        {"bare": lambda: _bare_loop(module), "noop": lambda: _noop_loop(module)},
        rounds=REPEATS, warmup=WARMUP,
    )
    bare, noop = stats["bare"], stats["noop"]
    overhead = noop.median / bare.median - 1.0
    report(
        "OBS no-op observer overhead (GHZ-10, per-shot loop, median-of-%d)" % REPEATS,
        [
            ("bare loop", f"{bare.median * 1e3:.2f} ms"),
            ("run_shots (no-op obs)", f"{noop.median * 1e3:.2f} ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
        ],
    )
    record_bench(
        "obs", "noop.bare_seconds", bare.median, unit="seconds",
        direction="lower", stats=bare, shots=SHOTS,
    )
    record_bench(
        "obs", "noop.run_shots_seconds", noop.median, unit="seconds",
        direction="lower", stats=noop, shots=SHOTS,
    )
    record_bench(
        "obs", "noop.overhead_fraction", overhead, unit="fraction",
        direction="lower", shots=SHOTS,
        budget_fraction=NOOP_BUDGET - 1.0, repeats=REPEATS,
    )
    assert noop.median <= bare.median * NOOP_BUDGET, (
        f"no-op observer overhead {overhead * 100:.2f}% exceeds "
        f"{(NOOP_BUDGET - 1) * 100:.0f}% budget"
    )


def test_enabled_observer_overhead_bounded():
    """Full tracing+metrics profiling stays within a small constant factor."""
    module = _module()
    stats = measure_interleaved(
        {"noop": lambda: _noop_loop(module), "enabled": lambda: _enabled_loop(module)},
        rounds=REPEATS, warmup=WARMUP,
    )
    noop, enabled = stats["noop"], stats["enabled"]
    overhead = enabled.median / noop.median - 1.0
    report(
        "OBS enabled observer overhead (GHZ-10, per-shot loop, median-of-%d)"
        % REPEATS,
        [
            ("no-op observer", f"{noop.median * 1e3:.2f} ms"),
            ("enabled observer", f"{enabled.median * 1e3:.2f} ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
        ],
    )
    record_bench(
        "obs", "enabled.run_shots_seconds", enabled.median, unit="seconds",
        direction="lower", stats=enabled, shots=SHOTS,
    )
    record_bench(
        "obs", "enabled.overhead_fraction", overhead, unit="fraction",
        direction="lower", shots=SHOTS,
        budget_fraction=ENABLED_BUDGET - 1.0, repeats=REPEATS,
    )
    assert enabled.median <= noop.median * ENABLED_BUDGET


def test_enabled_observer_records_everything():
    """Sanity: the enabled run actually produced the per-intrinsic profile
    (so the overhead above measured real instrumentation, not a silent no-op)."""
    module = _module()
    observer = Observer()
    QirRuntime(seed=7, observer=observer).run_shots(
        module, shots=10, sampling="never", scheduler="serial"
    )
    snapshot = observer.snapshot()
    intrinsics = [
        key for key in snapshot["counters"]
        if key.startswith("runtime.intrinsic_calls{")
    ]
    assert intrinsics, "per-intrinsic counters missing from enabled run"
    histogram = snapshot["histograms"]["runtime.shot_seconds"]
    assert histogram["count"] == 10
