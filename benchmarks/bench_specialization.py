"""SPECIALIZATION: fused gate kernels + warm distribution serving.

Shape claims:
* on a deep single-qubit-run workload (``rotation_ladder_qir``: 48
  consecutive rotations per qubit that coalesce into one pre-multiplied
  kernel each) the fused executor beats per-gate interpretation --
  ``runtime.fusion.speedup`` > 1;
* a warm plan whose sampling-fastpath distribution is memoized serves
  repeat shot requests with zero simulation, beating even the fast path
  by a wide margin -- ``runtime.plan.dist_warm_speedup`` > 5;
* neither tier moves a number: fused counts and warm-served counts are
  bit-identical to the unfused serial reference for the same seed.

``BENCH_specialization.json`` carries both ratios direction-higher, so
``qir-bench diff`` and the CI regression gate hold them release over
release.
"""

from repro.obs.snapshot import median_ratio
from repro.runtime import QirRuntime, QirSession, compile_plan
from repro.runtime.execute import (
    measure_distribution_speedup,
    measure_fusion_speedup,
)
from repro.workloads.qir_programs import ghz_qir, rotation_ladder_qir

from conftest import record_bench, report

SHOTS = 64
DIST_SHOTS = 1024
ROUNDS = 5
SEED = 7


def test_fusion_beats_per_gate_interpretation():
    text = rotation_ladder_qir(2, depth=48)
    plan = compile_plan(text, verify=False)
    kernels, source_gates = plan.fused.kernels, plan.fused.source_gates
    stats = measure_fusion_speedup(plan, shots=SHOTS, rounds=ROUNDS, seed=SEED)
    speedup = median_ratio(stats["unfused"], stats["fused"])
    report(
        "fused kernels vs per-gate interpretation (rotation ladder, serial)",
        [
            ("fused", f"{stats['fused'].median:.4f}s", f"{kernels} kernels"),
            ("unfused", f"{stats['unfused'].median:.4f}s",
             f"{source_gates} gates"),
        ],
        header=("arm", "median", "work"),
    )
    record_bench(
        "specialization", "runtime.fusion.speedup",
        speedup if speedup is not None else 0.0,
        unit="ratio", direction="higher", shots=SHOTS,
        kernels=kernels, source_gates=source_gates,
    )
    # The fused schedule must actually coalesce the runs (one kernel per
    # qubit's rotation ladder), and that coalescing must pay off.
    assert kernels < source_gates / 10
    assert speedup is not None and speedup > 1.0, (
        f"fusion did not pay: {speedup}"
    )

    # Bit-identity guard: the speedup must come from doing the same math
    # fewer times, not from doing different math.
    fused = QirRuntime(seed=SEED, fusion=True).run_shots(
        text, shots=SHOTS, sampling="never", scheduler="serial"
    )
    unfused = QirRuntime(seed=SEED, fusion=False).run_shots(
        text, shots=SHOTS, sampling="never", scheduler="serial"
    )
    assert fused.counts == unfused.counts


def test_warm_distribution_serving_beats_cold_fastpath():
    text = ghz_qir(10, addressing="static")
    stats = measure_distribution_speedup(
        text, shots=DIST_SHOTS, rounds=ROUNDS, seed=SEED
    )
    speedup = median_ratio(stats["cold"], stats["warm"])
    report(
        "warm distribution serving vs cold fast path (ghz10)",
        [
            ("warm", f"{stats['warm'].median:.5f}s"),
            ("cold", f"{stats['cold'].median:.5f}s"),
        ],
        header=("arm", "median"),
    )
    record_bench(
        "specialization", "runtime.plan.dist_warm_speedup",
        speedup if speedup is not None else 0.0,
        unit="ratio", direction="higher", shots=DIST_SHOTS,
    )
    assert speedup is not None and speedup > 5.0, (
        f"warm serving did not pay: {speedup}"
    )

    # Bit-identity guard: warm-served counts == cold fast-path counts for
    # the same seed (the distribution samples the reserved fastpath
    # stream, so memoization must be invisible in the histogram).  Fresh
    # same-seed runtimes, because each run_shots draws its root from the
    # runtime's advancing RNG; the shared plan object carries the
    # memoized distribution from the cold run into the warm one.
    plan = QirSession(runtime=QirRuntime(seed=SEED)).compile(text)
    cold = QirRuntime(seed=SEED).run_shots(
        plan, shots=DIST_SHOTS, sampling="require"
    )
    warm = QirRuntime(seed=SEED).run_shots(
        plan, shots=DIST_SHOTS, sampling="require"
    )
    assert warm.distribution_served
    assert warm.counts == cold.counts
