"""Layer spans recorded around the public entry points of each layer.

:class:`Recorder` wraps the layer functions for the duration of a traced
run (``install`` / ``uninstall``) and keeps every span in memory; nothing
is written until the run ends.  The program under test is not modified:
the wrappers live here and are bound in place of the originals only
while tracing.

Layers and the span names they record:

==========================  ==================================================
``llvmir.lex``              ``Lexer.tokenize`` (tokens and bytes counted)
``llvmir.parse``            ``parse_assembly`` (self time: parse minus lex)
``llvmir.verify``           ``verify_module``
``passes.<pipeline>``       ``PassManager.run`` inside ``compile_plan``
``runtime.session``         ``QirSession.compile`` (hashing, LRU lookup)
``runtime.plan``            ``compile_plan`` (self time: analysis on the
                            parsed module, verify and passes excluded)
``sim.fusion.specialize``   ``specialize_module``
``runtime.plancache.get``   ``PlanCache.get`` (self time excludes decode)
``runtime.plancache.put``   ``PlanCache.put`` (self time excludes encode)
``runtime.plan.encode``     ``ExecutionPlan.to_bytes``
``runtime.plan.decode``     ``ExecutionPlan.from_bytes`` (re-parse excluded)
``runtime.execute.<tier>``  ``QirRuntime.run_shots``, named by the result's
                            tier: ``fastpath``, ``dist_served``,
                            ``per_shot`` or ``batched``
==========================  ==================================================

Spans nest by time on one thread, so a span's *self time* is its
duration minus its direct children's, and the self times of all spans in
a request sum to the time covered by its outermost spans.  The rest of
the request's wall time is reported as ``unattributed``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

TIERS = ("fastpath", "dist_served", "per_shot", "batched")

@dataclass
class Span:
    name: str
    start: float
    end: float
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_to_json(span: Span) -> list:
    """A JSON-ready span (a child process hands its spans to the parent)."""
    info = {}
    for key, value in span.info.items():
        if key == "fused" and value is not None:
            info[key] = {"kernels": value.kernels, "source_gates": value.source_gates}
        elif isinstance(value, (bool, int, float, str)) or value is None:
            info[key] = value
    return [span.name, span.start, span.end, info]


def span_from_json(row: list) -> Span:
    name, start, end, info = row
    if info.get("fused") is not None:
        info["fused"] = SimpleNamespace(**info["fused"])
    return Span(name, start, end, info)


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its direct
    children's.  Spans must be properly nested (one thread)."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    child_time = [0.0] * len(ordered)
    stack: List[int] = []
    for index, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            child_time[stack[-1]] += span.duration
        stack.append(index)
    totals: Dict[str, float] = {}
    for span, children in zip(ordered, child_time):
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - children
    return totals


def tier_of(result) -> str:
    if result.distribution_served:
        return "dist_served"
    if result.used_fast_path:
        return "fastpath"
    if result.scheduler == "batched":
        return "batched"
    return "per_shot"


class Recorder:
    """Wraps the layer entry points and records one :class:`Span` per call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pipelines: List[Optional[str]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------
    def _timed(
        self,
        fn: Callable,
        name: str,
        describe: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
        rename: Optional[Callable[[Any], str]] = None,
    ) -> Callable:
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                span = Span(name, start, end)
                if ok:
                    if rename is not None:
                        span.name = rename(result)
                    if describe is not None:
                        span.info = describe(args, result)
                spans.append(span)

        return wrapper

    def _patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_functions(self, replacements: Dict[Callable, Callable]) -> None:
        """Rebind every ``repro`` module attribute naming a replaced function."""
        by_id = {id(original): new for original, new in replacements.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                new = by_id.get(id(value))
                if new is not None:
                    self._restore.append((module, attr, value))
                    namespace[attr] = new

    def install(self) -> "Recorder":
        from repro.llvmir.lexer import Lexer
        from repro.llvmir.parser import parse_assembly
        from repro.llvmir.verifier import verify_module
        from repro.passes.manager import PassManager
        from repro.runtime.execute import QirRuntime
        from repro.runtime.plan import ExecutionPlan, compile_plan
        from repro.runtime.plancache import PlanCache
        from repro.runtime.session import QirSession
        from repro.sim.fusion import specialize_module

        timed = self._timed
        pipelines = self._pipelines

        self._patch_attr(
            Lexer,
            "tokenize",
            timed(
                Lexer.tokenize,
                "llvmir.lex",
                lambda args, tokens: {"tokens": len(tokens), "bytes": len(args[0].source)},
            ),
        )
        run_pipeline = {
            name: timed(PassManager.run, f"passes.{name}") for name in ("o1", "unroll")
        }

        def run_passes(manager, module, observer=None):
            return run_pipeline[pipelines[-1]](manager, module, observer)

        self._patch_attr(PassManager, "run", run_passes)

        timed_compile = timed(compile_plan, "runtime.plan")

        def compile_with_pipeline(*args, **kwargs):
            pipelines.append(kwargs.get("pipeline"))
            try:
                return timed_compile(*args, **kwargs)
            finally:
                pipelines.pop()

        self._patch_functions(
            {
                parse_assembly: timed(parse_assembly, "llvmir.parse"),
                verify_module: timed(verify_module, "llvmir.verify"),
                compile_plan: compile_with_pipeline,
                specialize_module: timed(
                    specialize_module,
                    "sim.fusion.specialize",
                    lambda args, fused: {"fused": fused},
                ),
            }
        )
        self._patch_attr(
            PlanCache,
            "get",
            timed(
                PlanCache.get,
                "runtime.plancache.get",
                lambda args, plan: {"hit": plan is not None},
            ),
        )
        self._patch_attr(PlanCache, "put", timed(PlanCache.put, "runtime.plancache.put"))
        self._patch_attr(
            ExecutionPlan,
            "to_bytes",
            timed(ExecutionPlan.to_bytes, "runtime.plan.encode"),
        )
        decode = timed(ExecutionPlan.from_bytes.__func__, "runtime.plan.decode")
        self._patch_attr(ExecutionPlan, "from_bytes", classmethod(decode))
        self._patch_attr(
            QirRuntime,
            "run_shots",
            timed(
                QirRuntime.run_shots,
                "runtime.execute.per_shot",
                lambda args, result: {"plan": args[1], "shots": result.shots},
                rename=lambda result: f"runtime.execute.{tier_of(result)}",
            ),
        )
        self._patch_attr(QirSession, "compile", self._session_compile(QirSession.compile))
        return self

    def _session_compile(self, compile_fn: Callable) -> Callable:
        """``QirSession.compile``, recording whether a text lookup was
        served by the in-memory LRU (no plan-cache read, no compile)."""
        spans = self.spans

        def wrapper(session, program, **kwargs):
            first = len(spans)
            start = perf_counter()
            try:
                return compile_fn(session, program, **kwargs)
            finally:
                end = perf_counter()
                info: Dict[str, Any] = {}
                if isinstance(program, str):
                    inner = {s.name for s in spans[first:]}
                    info["lru_hit"] = not (
                        inner & {"runtime.plan", "runtime.plancache.get"}
                    )
                spans.append(Span("runtime.session", start, end, info))

        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans
