"""repro: a complete QIR (Quantum Intermediate Representation) toolchain.

A from-scratch Python reproduction of the systems discussed in
"Towards Supporting QIR: Steps for Adopting the Quantum Intermediate
Representation" (Stade, Burgholzer, Wille; SC 2025): an LLVM-IR-subset
infrastructure, the QIR layer (profiles, builder, validation), classical
and quantum optimisation passes, OpenQASM 2/3 frontends, a custom circuit
IR, a QIR runtime with statevector and stabilizer simulator backends, and
a hybrid classical-quantum partitioner with coherence-feasibility
checking.

Quickstart::

    from repro import SimpleModule, run_shots

    sm = SimpleModule("bell", num_qubits=2, num_results=2)
    sm.qis.h(0)
    sm.qis.cnot(0, 1)
    sm.qis.mz(0, 0)
    sm.qis.mz(1, 1)
    sm.record_output()
    print(run_shots(sm.ir(), shots=1000).counts)

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced experiments.
"""

import importlib
import sys

#: Where each public name is defined (its keys, in order, are ``__all__``).
#: Nothing is imported until a name is first read, so ``import repro`` (and
#: every ``repro.*`` tool) pays only for the subpackages it actually uses.
_EXPORTS = {
    "Circuit": "repro.circuit",
    "run_circuit": "repro.circuit",
    "statevector_of": "repro.circuit",
    "export_circuit": "repro.frontend",
    "export_circuit_text": "repro.frontend",
    "import_circuit": "repro.frontend",
    "parse_base_profile": "repro.frontend",
    "parse_assembly": "repro.llvmir",
    "print_module": "repro.llvmir",
    "verify_module": "repro.llvmir",
    "NULL_OBSERVER": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "Observer": "repro.obs",
    "Tracer": "repro.obs",
    "render_profile": "repro.obs",
    "circuit_to_qasm2": "repro.qasm",
    "parse_qasm2": "repro.qasm",
    "parse_qasm3": "repro.qasm",
    "AdaptiveProfile": "repro.qir",
    "BaseProfile": "repro.qir",
    "BasicQisBuilder": "repro.qir",
    "FullProfile": "repro.qir",
    "SimpleModule": "repro.qir",
    "validate_profile": "repro.qir",
    "QirRuntime": "repro.runtime",
    "ShotsResult": "repro.runtime",
    "execute": "repro.runtime",
    "run_shots": "repro.runtime",
    "FallbackChain": "repro.resilience",
    "FaultPlan": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "NoiseModel": "repro.sim",
    "StabilizerSimulator": "repro.sim",
    "StatevectorSimulator": "repro.sim",
    "DeviceModel": "repro.hybrid",
    "check_feasibility": "repro.hybrid",
    "partition_function": "repro.hybrid",
    "CompilationResult": "repro.compiler",
    "Target": "repro.compiler",
    "compile_program": "repro.compiler",
}


def _lazy_exports(package, exports):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a lazily exporting package.

    ``__getattr__`` imports the module *exports* maps a name to, caches
    the value in the package namespace (so the hook runs once per name)
    and returns it; any other public name is tried as a subpackage or
    submodule of *package*.  Unknown names raise ``AttributeError``.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            qualified = f"{package}.{name}"
            try:
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
