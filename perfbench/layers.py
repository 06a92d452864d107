"""Per-layer metrics of a traced run, built from recorded spans.

Every layer time is reported as seconds per request (the layer's total
self time over the traced requests, divided by their number), so it
reads against ``latency_p50_s`` directly.  ``unattributed_s`` is the
traced wall time no span covers; by construction the layer self times
plus ``unattributed_s`` sum to the traced wall time.

``sim.kernel_s`` / ``sim.gates`` replay each straight-line request's
kernel work outside the request (see :class:`KernelReplay`);
``runtime.interpreter_s`` is derived from them and is labelled so.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import TIERS, Span, self_times

S, COUNT, RATIO = "s", "count", "ratio"

#: span name -> per-layer metric reporting its self time.
SPAN_METRICS = {
    "startup.interpreter": "startup.interpreter_s",
    "startup.import": "startup.import_s",
    "process.exit": "process.exit_s",
    "llvmir.lex": "llvmir.lex_s",
    "llvmir.parse": "llvmir.parse_s",
    "llvmir.verify": "llvmir.verify_s",
    "passes.o1": "passes.o1_s",
    "passes.unroll": "passes.unroll_s",
    "runtime.session": "runtime.session_s",
    "runtime.plan": "runtime.plan_s",
    "sim.fusion.specialize": "sim.fusion.specialize_s",
    "runtime.plancache.get": "runtime.plancache.get_s",
    "runtime.plancache.put": "runtime.plancache.put_s",
    "runtime.plan.encode": "runtime.plan.encode_s",
    "runtime.plan.decode": "runtime.plan.decode_s",
    **{f"runtime.execute.{tier}": f"runtime.execute.{tier}_s" for tier in TIERS},
}


@dataclass
class TracedRequest:
    """One traced request: its wall time and the spans inside it.

    ``kernel_s`` / ``gates`` come from :class:`KernelReplay` (``None``
    when the program is not straight-line); ``ir_sizes`` is the
    instruction count before and after the request's pipeline, measured
    outside the request.
    """

    wall: float
    spans: List[Span]
    kernel_s: Optional[float] = None
    gates: int = 0
    ir_sizes: Optional[Tuple[int, int]] = None


def attribution(requests: List[TracedRequest]) -> Tuple[Dict[str, float], float, float]:
    """``(self time per span name, unattributed, wall)`` summed over requests."""
    totals: Dict[str, float] = {}
    wall = 0.0
    for request in requests:
        wall += request.wall
        for name, seconds in self_times(request.spans).items():
            totals[name] = totals.get(name, 0.0) + seconds
    unattributed = wall - sum(totals.values())
    return totals, unattributed, wall


def _spans(requests: List[TracedRequest], name: str) -> List[Span]:
    return [s for r in requests for s in r.spans if s.name == name]


def layer_metrics(
    requests: List[TracedRequest],
    overhead_fraction: float,
    startup: Optional[Dict[str, float]] = None,
) -> Dict[str, Tuple[float, str]]:
    """All per-layer metrics of a traced run.

    ``startup`` overrides the startup layer for in-process workloads,
    whose requests never start an interpreter: it then reports the
    set-up's fresh-interpreter measurement instead.
    """
    n = max(1, len(requests))
    totals, unattributed, _ = attribution(requests)
    unknown = set(totals) - set(SPAN_METRICS)
    if unknown:
        raise ValueError(f"spans without a layer metric: {sorted(unknown)}")
    out: Dict[str, Tuple[float, str]] = {
        metric: (totals.get(name, 0.0) / n, S) for name, metric in SPAN_METRICS.items()
    }
    if startup is not None:
        for name, seconds in startup.items():
            out[name] = (seconds, S)

    lexes = _spans(requests, "llvmir.lex")
    out["llvmir.bytes"] = (sum(s.info.get("bytes", 0) for s in lexes) / n, "B")
    out["llvmir.tokens"] = (sum(s.info.get("tokens", 0) for s in lexes) / n, COUNT)

    sized = [r.ir_sizes for r in requests if r.ir_sizes is not None]
    out["passes.ir_before"] = (
        sum(b for b, _ in sized) / len(sized) if sized else 0.0, COUNT
    )
    out["passes.ir_after"] = (
        sum(a for _, a in sized) / len(sized) if sized else 0.0, COUNT
    )

    fused = [
        s.info["fused"]
        for s in _spans(requests, "sim.fusion.specialize")
        if s.info.get("fused") is not None
    ]
    out["sim.fusion.kernels"] = (sum(f.kernels for f in fused) / n, COUNT)
    out["sim.fusion.source_gates"] = (sum(f.source_gates for f in fused) / n, COUNT)

    gets = _spans(requests, "runtime.plancache.get")
    out["runtime.plancache.hit_ratio"] = (
        sum(1 for s in gets if s.info.get("hit")) / len(gets) if gets else 0.0, RATIO
    )
    lookups = [
        s for s in _spans(requests, "runtime.session") if "lru_hit" in s.info
    ]
    out["runtime.session.plan_hit_ratio"] = (
        sum(1 for s in lookups if s.info["lru_hit"]) / len(lookups) if lookups else 0.0,
        RATIO,
    )

    executes = {tier: _spans(requests, f"runtime.execute.{tier}") for tier in TIERS}
    runs = max(1, sum(len(v) for v in executes.values()))
    for tier in TIERS:
        out[f"runtime.tier.{tier}_share"] = (len(executes[tier]) / runs, RATIO)
    per_shot_shots = sum(s.info.get("shots", 0) for s in executes["per_shot"])
    out["runtime.execute.per_shot_us_per_shot"] = (
        1e6 * totals.get("runtime.execute.per_shot", 0.0) / per_shot_shots
        if per_shot_shots
        else 0.0,
        "us",
    )

    replayed = [r for r in requests if r.kernel_s is not None]
    out["sim.kernel_s"] = (sum(r.kernel_s for r in replayed) / n, S)
    out["sim.gates"] = (sum(r.gates for r in replayed) / n, COUNT)
    # Derived: per-shot execute time of straight-line requests minus
    # their kernel replay.
    interpreter = 0.0
    for r in replayed:
        executed = sum(
            s.duration for s in r.spans if s.name == "runtime.execute.per_shot"
        )
        if executed:
            interpreter += executed - r.kernel_s
    out["runtime.interpreter_s"] = (interpreter / n, S)

    out["unattributed_s"] = (unattributed / n, S)
    out["obs.trace_overhead_fraction"] = (overhead_fraction, RATIO)
    return out


# -- kernel replay ------------------------------------------------------------------


class KernelReplay:
    """Times a program's kernel work on ``StatevectorSimulator`` outside
    any request, memoized per (program, pipeline, tier).

    * ``per_shot``: the plan's fused schedule through ``run_fused`` (what
      the per-shot executor applies to straight-line programs) for
      :data:`SHOTS` seeded shots; the mean per shot, times the shots
      served;
    * ``fastpath``: the ``extract_trace`` gate sequence applied once (the
      fast path evolves once, then samples); the median of
      :data:`REPEATS`;
    * ``dist_served``: no kernel work.
    """

    SHOTS = 32
    REPEATS = 3

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, Optional[str], str], Optional[Tuple[float, int]]] = {}

    def per_request(
        self, key: Tuple[str, Optional[str]], plan, tier: str, shots: int
    ) -> Tuple[Optional[float], int]:
        if tier == "dist_served":
            return 0.0, 0
        memo_key = (key[0], key[1], tier)
        if memo_key not in self._memo:
            self._memo[memo_key] = self._measure(plan, tier)
        found = self._memo[memo_key]
        if found is None:
            return None, 0
        seconds, gates = found
        evolutions = shots if tier in ("per_shot", "batched") else 1
        return seconds * evolutions, gates * evolutions

    def _measure(self, plan, tier: str) -> Optional[Tuple[float, int]]:
        from repro.sim.fusion import TraceGate, extract_trace, run_fused
        from repro.sim.statevector import StatevectorSimulator

        trace = extract_trace(plan.module, plan.entry)
        if trace is None:
            return None
        gates = [op for op in trace.ops if isinstance(op, TraceGate)]
        if tier != "fastpath" and plan.fused is not None:
            start = perf_counter()
            for shot in range(self.SHOTS):
                run_fused(plan.fused, StatevectorSimulator(0, seed=shot))
            return (perf_counter() - start) / self.SHOTS, len(gates)
        timings = []
        for repeat in range(self.REPEATS):
            sim = StatevectorSimulator(trace.num_slots, seed=repeat)
            start = perf_counter()
            for gate in gates:
                sim.apply_gate(gate.name, gate.slots, gate.params)
            timings.append(perf_counter() - start)
        timings.sort()
        return timings[len(timings) // 2], len(gates)
