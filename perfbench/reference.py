"""Reference output distributions and the histogram check.

A reference never comes from ``repro.runtime``: straight-line programs
are simulated through the frontend importer and the circuit IR's
``statevector_of``; the adaptive programs have analytic answers.

Bitstrings follow the runtime's rendering: result ``r`` is character
``-1 - r`` (highest index leftmost), so ``int(key, 2)`` has result ``r``
at bit ``r``.

The check accepts a histogram when

* its counts sum to the shots requested,
* every observed outcome lies in the reference support,
* its total-variation distance to the reference is within
  ``E[TV] + sqrt(ln(1/delta) / 2N)`` (Jensen bounds the expectation by
  ``0.5 * sum sqrt(p(1-p)/N)``; McDiarmid bounds the deviation), and
* every result bit's frequency is within Hoeffding's
  ``sqrt(ln(2R/delta) / 2N)`` of its reference marginal.

With ``delta = 1e-9`` a correct sampler fails a request with
probability below ``2e-9``; the runs are seeded, so a verdict repeats
exactly for the same seed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

DELTA = 1e-9
_SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class Reference:
    """A distribution over ``width``-bit outcomes, stored sparsely."""

    width: int
    outcomes: np.ndarray  # int64 outcome indices with p > 0
    probs: np.ndarray  # their probabilities (sum to 1)

    @classmethod
    def from_dense(cls, width: int, dense: np.ndarray) -> "Reference":
        keep = np.nonzero(dense > _SUPPORT_EPS)[0]
        probs = dense[keep]
        return cls(width, keep.astype(np.int64), probs / probs.sum())

    @classmethod
    def from_dict(cls, width: int, table: Dict[int, float]) -> "Reference":
        items = sorted((k, p) for k, p in table.items() if p > _SUPPORT_EPS)
        outcomes = np.array([k for k, _ in items], dtype=np.int64)
        probs = np.array([p for _, p in items], dtype=float)
        return cls(width, outcomes, probs / probs.sum())

    def check(self, counts: Dict[str, int], shots: int) -> Optional[str]:
        """``None`` when ``counts`` is consistent with this reference,
        else a one-line reason."""
        total = sum(counts.values())
        if total != shots:
            return f"counts sum to {total}, expected {shots}"
        index = {int(k): i for i, k in enumerate(self.outcomes)}
        observed = np.zeros(len(self.outcomes))
        for key, count in counts.items():
            if len(key) != self.width or set(key) - {"0", "1"}:
                return f"malformed outcome {key!r} (expected {self.width} bits)"
            slot = index.get(int(key, 2))
            if slot is None:
                return f"outcome {key} outside the reference support"
            observed[slot] = count
        n = float(shots)
        freq = observed / n
        tv = 0.5 * float(np.abs(freq - self.probs).sum())
        tv_bound = 0.5 * float(np.sqrt(self.probs * (1 - self.probs) / n).sum())
        tv_bound += math.sqrt(math.log(1 / DELTA) / (2 * n))
        if tv > tv_bound:
            return f"total variation {tv:.4f} exceeds bound {tv_bound:.4f}"
        margin = math.sqrt(math.log(2 * max(1, self.width) / DELTA) / (2 * n))
        for bit in range(self.width):
            mask = ((self.outcomes >> bit) & 1).astype(bool)
            expected = float(self.probs[mask].sum())
            seen = float(freq[mask].sum())
            if abs(seen - expected) > margin:
                return (
                    f"result {bit} frequency {seen:.4f} vs reference "
                    f"{expected:.4f} (margin {margin:.4f})"
                )
        return None


def _probabilities(circuit) -> np.ndarray:
    from repro.circuit.simulate import statevector_of

    return np.abs(statevector_of(circuit)) ** 2


def _map_to_results(
    qubit_probs: np.ndarray, num_qubits: int, result_qubit: Dict[int, int], width: int
) -> np.ndarray:
    """Marginalise basis-state probabilities onto result slots."""
    basis = np.arange(1 << num_qubits, dtype=np.int64)
    outcome = np.zeros_like(basis)
    for result, qubit in result_qubit.items():
        outcome |= ((basis >> qubit) & 1) << result
    return np.bincount(outcome, weights=qubit_probs, minlength=1 << width)


def circuit_reference(text: str) -> Reference:
    """Straight-line program: import to the circuit IR, drop the
    terminal measurements, and simulate with ``statevector_of``."""
    from repro.circuit.circuit import Circuit
    from repro.circuit.operations import GateOperation, Measurement
    from repro.frontend.importer import import_circuit
    from repro.llvmir.parser import parse_assembly

    source = import_circuit(parse_assembly(text))
    unitary = Circuit("reference")
    unitary.qreg(source.num_qubits)
    result_qubit: Dict[int, int] = {}
    for op in source.operations:
        if isinstance(op, GateOperation):
            unitary.gate(op.name, [source.qubit_index(q) for q in op.qubits], op.params)
        elif isinstance(op, Measurement):
            qubit = source.qubit_index(op.qubit)
            if qubit in result_qubit.values():
                raise ValueError("circuit reference needs terminal measurements")
            result_qubit[source.clbit_index(op.clbit)] = qubit
        else:
            raise ValueError(f"circuit reference cannot model {op!r}")
    width = source.num_clbits
    dense = _map_to_results(
        _probabilities(unitary), source.num_qubits, result_qubit, width
    )
    return Reference.from_dense(width, dense)


def gates_reference(width: int, gates) -> Reference:
    """``gates`` (``(name, qubits, params)``) from |0...0>, then measure
    qubit ``q`` into result ``q``."""
    from repro.circuit.circuit import Circuit

    circuit = Circuit("reference")
    circuit.qreg(width)
    for name, qubits, params in gates:
        circuit.gate("cx" if name == "cnot" else name, list(qubits), list(params))
    dense = _map_to_results(
        _probabilities(circuit), width, {q: q for q in range(width)}, width
    )
    return Reference.from_dense(width, dense)


def reset_chain_reference(width: int, rounds: int, angle: float) -> Reference:
    """Each qubit's last round is ``ry(angle*rounds + 0.1 q)`` on a reset
    qubit, so it reads 1 with probability sin^2(theta/2), independently."""
    dense = np.ones(1)
    for q in range(width):
        p1 = math.sin((angle * rounds + 0.1 * q) / 2) ** 2
        dense = np.concatenate([dense * (1 - p1), dense * p1])
    return Reference.from_dense(width, dense)


def repetition_reference(
    distance: int, rounds: int, error: Optional[int], logical_one: bool
) -> Reference:
    """The decoded code always reads the encoded logical value; round 0's
    syndromes flag the injected error and later rounds read zero."""
    width = rounds * (distance - 1) + distance
    outcome = 0
    if error is not None:
        for i in range(distance - 1):
            if error in (i, i + 1):
                outcome |= 1 << i
    if logical_one:
        for i in range(distance):
            outcome |= 1 << (rounds * (distance - 1) + i)
    return Reference.from_dict(width, {outcome: 1.0})


def teleport_reference() -> Reference:
    """Bell-measurement results 0 and 1 are uniform; the verify bit
    (result 2) is always 0."""
    return Reference.from_dict(3, {k: 0.25 for k in range(4)})


def reference_for(text: str, ref: Tuple) -> Reference:
    kind = ref[0]
    if kind == "circuit":
        return circuit_reference(text)
    if kind == "counted_loop":
        _, width, gate = ref
        return gates_reference(width, [(gate, (q,), ()) for q in range(width)])
    if kind == "final_round":
        _, width, layers = ref
        return gates_reference(width, [g for layer in layers for g in layer])
    if kind == "reset_chain":
        return reset_chain_reference(*ref[1:])
    if kind == "repetition":
        return repetition_reference(*ref[1:])
    if kind == "teleport":
        return teleport_reference()
    raise ValueError(f"unknown reference kind {kind!r}")


class ReferenceCache:
    """A small LRU of references by program text: the pools repeat
    programs, and the bound keeps a stream of fresh programs from growing
    the benchmark process (whose peak RSS is measured)."""

    def __init__(self, capacity: int = 16) -> None:
        self._capacity = capacity
        self._cache: "OrderedDict[str, Reference]" = OrderedDict()

    def get(self, text: str, ref: Tuple) -> Reference:
        found = self._cache.get(text)
        if found is None:
            found = self._cache[text] = reference_for(text, ref)
            if len(self._cache) > self._capacity:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(text)
        return found
