"""EX5: Example 5 -- the runtime executing QIR against simulator backends.

Shape claims (DESIGN.md):
* statevector cost grows ~2^n with qubit count;
* the stabilizer backend executes Clifford workloads far beyond
  statevector reach (here: 300-qubit GHZ);
* runtime dispatch overhead is small relative to simulation cost at the
  high end.
"""

import pytest

from repro.llvmir import parse_assembly
from repro.runtime import QirRuntime, execute
from repro.workloads.qir_programs import ghz_qir, qft_qir, random_qir

from conftest import report

_SV_TIMES = {}

SV_SIZES = [4, 8, 12, 16]


@pytest.mark.parametrize("num_qubits", SV_SIZES)
def test_statevector_scaling(benchmark, num_qubits):
    module = parse_assembly(qft_qir(num_qubits, addressing="static"))

    def run():
        return execute(module, backend="statevector", seed=3)

    result = benchmark(run)
    assert result.stats.gates > 0
    _SV_TIMES[num_qubits] = benchmark.stats.stats.mean


@pytest.mark.parametrize("num_qubits", [50, 150, 300])
def test_stabilizer_scaling(benchmark, num_qubits):
    module = parse_assembly(ghz_qir(num_qubits, addressing="static"))

    def run():
        return execute(module, backend="stabilizer", seed=4)

    result = benchmark(run)
    assert len(result.result_bits) == num_qubits
    assert len(set(result.result_bits)) == 1  # GHZ correlation


def test_ex5_shape(benchmark):
    """Exponential statevector growth; stabilizer handles what the
    statevector backend cannot even allocate."""
    module = parse_assembly(ghz_qir(300, addressing="static"))
    result = benchmark(execute, module, backend="stabilizer", seed=5)
    assert len(result.result_bits) == 300

    rows = [(n, f"{_SV_TIMES[n]*1e3:.2f} ms") for n in SV_SIZES if n in _SV_TIMES]
    report(
        "EX5 statevector QFT runtime vs qubit count",
        rows,
        header=("qubits", "time / shot"),
    )
    if all(n in _SV_TIMES for n in (8, 16)):
        # 8 extra qubits = 256x state size; demand clear superlinear growth.
        assert _SV_TIMES[16] > 4 * _SV_TIMES[8]

    # The statevector backend refuses the 300-qubit program outright.
    with pytest.raises(Exception):
        QirRuntime(backend="statevector", max_qubits=26).execute(module)


@pytest.mark.parametrize("workload", ["random_shallow", "random_deep"])
def test_runtime_dispatch_overhead(benchmark, workload):
    """Many cheap gates (dispatch-bound) vs few qubits (simulation-light)."""
    depth = 4 if workload == "random_shallow" else 40
    module = parse_assembly(random_qir(4, depth, seed=6, addressing="static"))

    def run():
        return execute(module, backend="statevector", seed=7)

    result = benchmark(run)
    benchmark.extra_info["gates"] = result.stats.gates
    benchmark.extra_info["steps"] = result.stats.steps


@pytest.mark.parametrize("strategy", ["per-shot", "sampled"])
def test_multishot_strategy_ablation(benchmark, strategy):
    """Ablation: per-shot re-interpretation (the qir-runner model) vs the
    deferred-measurement sampling fast path, 200 shots of GHZ-10."""
    text = ghz_qir(10, addressing="static")
    sampling = "never" if strategy == "per-shot" else "require"
    runtime = QirRuntime(seed=23)

    def run():
        return runtime.run_shots(
            text, shots=200, sampling=sampling, scheduler="serial"
        )

    result = benchmark(run)
    assert sum(result.counts.values()) == 200
    assert set(result.counts) <= {"0" * 10, "1" * 10}
    assert result.used_fast_path == (strategy == "sampled")
