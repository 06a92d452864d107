"""The compile phase: parse -> verify -> passes -> analysis -> ExecutionPlan.

The paper's execution story is "link a runtime, then run" (``lli``-style),
which conflates two phases with very different cost profiles: *compiling*
a QIR program (frontend + optimisation + static analysis -- expensive,
shot-independent) and *executing* it (per-shot simulation).  QIR-Alliance
tooling and the dataflow-IR line of work treat the program as a compiled
artifact that is analysed once and executed many times; this module is
that artifact.

An :class:`ExecutionPlan` is the frozen output of one compilation:

* the parsed (and optionally pass-optimised, verified) module,
* a **content-hash identity** -- ``source_hash`` is the SHA-256 of the
  textual IR, and :attr:`ExecutionPlan.key` extends it with the pipeline
  name, backend, and entry point, so a plan cache
  (:class:`~repro.runtime.session.QirSession`) can answer "have I
  compiled exactly this configuration before?" without re-parsing,
* precomputed entry-point / profile / Clifford analysis so the execute
  phase (:mod:`repro.runtime.schedulers`) never re-derives them per shot.

Plans are immutable by convention: the execute phase treats the module as
read-only, which is what makes one plan safely shareable across repeated
``run_shots`` calls and across concurrent callers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Tuple, Union

from repro.llvmir.module import Module
from repro.llvmir.parser import parse_assembly
from repro.llvmir.printer import print_module
from repro.llvmir.verifier import verify_module
from repro.obs.observer import as_observer
from repro.resilience.fallback import program_is_clifford
from repro.runtime.sampling_fastpath import SampledDistribution
from repro.sim.fusion import FusedProgram, specialize_module

PipelineLike = Union[None, str, Callable]

#: Wire-format version of :meth:`ExecutionPlan.to_bytes`.  Bump on any
#: incompatible layout change; decoders reject any *other* version --
#: newer (unknown layout) and older (missing blocks) alike fail closed
#: to a recompile -- and the disk cache
#: (:mod:`repro.runtime.plancache`) keys on it so a format bump silently
#: invalidates every persisted plan.  v2 added the optional cached
#: sampling ``distribution`` block.
PLAN_WIRE_VERSION = 2


class PlanDecodeError(ValueError):
    """A serialized plan could not be decoded (corrupt, truncated, or
    written by a newer wire format).  Callers holding the original source
    should treat this as a cache miss and recompile."""


def content_hash(program: Union[str, Module]) -> str:
    """SHA-256 identity of a program's textual IR.

    Text sources hash directly; in-memory modules hash their printed
    form, so a module and its round-tripped text agree only when the
    printer is the source of both -- callers that care about cache hits
    should prefer passing the original text.
    """
    text = program if isinstance(program, str) else print_module(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_key(
    source_hash: str,
    pipeline: Optional[str],
    backend: str,
    entry: Optional[str],
) -> str:
    """The plan cache key: content hash + pipeline name + backend (+ entry)."""
    return f"{source_hash}:{pipeline or '-'}:{backend}:{entry or '-'}"


def _resolve_pipeline(pipeline: PipelineLike) -> Tuple[Optional[str], Optional[Callable]]:
    """Normalise a pipeline argument to ``(name, factory)``.

    Accepts ``None``, a name from the qir-opt registry, or a callable
    returning a configured :class:`~repro.passes.manager.PassManager`.
    """
    if pipeline is None:
        return None, None
    if callable(pipeline):
        name = getattr(pipeline, "__name__", "custom")
        return name, pipeline
    # Imported lazily: the tools layer imports the runtime, so a top-level
    # import here would close a package cycle.
    from repro.tools.qir_opt import PIPELINES

    factory = PIPELINES.get(str(pipeline))
    if factory is None:
        raise ValueError(
            f"unknown pipeline {pipeline!r}; choose from {', '.join(sorted(PIPELINES))}"
        )
    return str(pipeline), factory


class _MemoCell:
    """One mutable slot inside the otherwise-frozen plan.  Kept out of
    equality/repr; exists so a run can memoize what it learned (a warm
    distribution, a batched decline) on a plan already held by session
    caches without rebuilding it."""

    __slots__ = ("value",)

    def __init__(self, value: object = None):
        self.value = value


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled QIR program, frozen for repeated execution.

    The execute phase treats ``module`` as read-only; everything else is
    precomputed static analysis.  ``key`` is the cache identity
    (content hash + pipeline + backend + entry).
    """

    module: Module = field(repr=False)
    source_hash: str
    key: str
    backend: str = "statevector"
    pipeline: Optional[str] = None
    entry: Optional[str] = None
    # -- static analysis -------------------------------------------------------
    entry_point: Optional[str] = None
    profile: Optional[str] = None
    required_qubits: Optional[int] = None
    required_results: Optional[int] = None
    is_clifford: bool = False
    # -- provenance ------------------------------------------------------------
    compile_seconds: float = 0.0
    verified: bool = False
    # -- specialization --------------------------------------------------------
    #: Fused kernel schedule (derived analysis -- recomputed at compile
    #: time and on decode, never serialized; ``None`` when the program is
    #: not specializable or the backend is not the statevector).
    fused: Optional[FusedProgram] = field(default=None, compare=False, repr=False)
    #: Mutable cell holding the memoized sampling distribution.  The plan
    #: itself stays frozen; the cell fills in at most once, after the
    #: first successful fast-path run (see :meth:`attach_distribution`).
    _dist: "_MemoCell" = field(
        default_factory=_MemoCell, compare=False, repr=False
    )
    #: Mutable cell holding why a batched run of this plan aborted (e.g.
    #: ``"feedback"``), so later batched or auto requests go straight to
    #: the per-shot loop.  In memory only: never serialized.
    _batched_decline: "_MemoCell" = field(
        default_factory=_MemoCell, compare=False, repr=False
    )

    @property
    def short_hash(self) -> str:
        return self.source_hash[:12]

    @property
    def distribution(self) -> Optional[SampledDistribution]:
        return self._dist.value

    def attach_distribution(self, distribution: SampledDistribution) -> None:
        """Memoize the fast path's terminal distribution (idempotent --
        the first attachment wins; the plan's identity never changes)."""
        if self._dist.value is None:
            self._dist.value = distribution

    @property
    def batched_decline(self) -> Optional[str]:
        return self._batched_decline.value

    def note_batched_decline(self, reason: str) -> None:
        """Memoize why a batched run aborted (the first reason wins)."""
        if self._batched_decline.value is None:
            self._batched_decline.value = reason

    def describe(self) -> str:
        parts = [
            f"plan {self.short_hash}",
            f"backend={self.backend}",
            f"pipeline={self.pipeline or '-'}",
            f"entry={self.entry_point or self.entry or '?'}",
        ]
        if self.required_qubits is not None:
            parts.append(f"qubits={self.required_qubits}")
        if self.is_clifford:
            parts.append("clifford")
        return " ".join(parts)

    # -- serialization ---------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the plan for another process (or the disk cache).

        The module travels as its printed IR plus a SHA-256 of that text,
        so a decoder can prove integrity before parsing; every analysis
        field rides along verbatim, which is the point -- a deserialized
        plan skips verify, passes, and analysis entirely.  Note the
        printed text is the *compiled* module (post-pipeline), while
        ``source_hash`` stays the identity of the original source.
        """
        module_text = print_module(self.module)
        payload = {
            "wire_version": PLAN_WIRE_VERSION,
            "module_text": module_text,
            "module_sha256": hashlib.sha256(
                module_text.encode("utf-8")
            ).hexdigest(),
            "source_hash": self.source_hash,
            "key": self.key,
            "backend": self.backend,
            "pipeline": self.pipeline,
            "entry": self.entry,
            "entry_point": self.entry_point,
            "profile": self.profile,
            "required_qubits": self.required_qubits,
            "required_results": self.required_results,
            "is_clifford": self.is_clifford,
            "compile_seconds": self.compile_seconds,
            "verified": self.verified,
            "distribution": (
                None
                if self.distribution is None
                else {"entries": self.distribution.to_entries()}
            ),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExecutionPlan":
        """Decode a plan serialized by :meth:`to_bytes`.

        Raises :class:`PlanDecodeError` on anything suspect -- malformed
        JSON, a newer wire version, a module text whose hash does not
        match -- never a half-reconstructed plan.  The module text is
        re-parsed (cheap next to verify + passes + analysis, which are
        all skipped because their results ride in the payload).
        """
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise PlanDecodeError(f"not a serialized plan: {error}") from error
        if not isinstance(payload, dict):
            raise PlanDecodeError("not a serialized plan: expected a JSON object")
        version = payload.get("wire_version")
        if not isinstance(version, int):
            raise PlanDecodeError("serialized plan is missing wire_version")
        if version != PLAN_WIRE_VERSION:
            # Older payloads lack blocks this decoder expects (v2 added the
            # distribution); newer ones may lay fields out differently.
            # Either way the caller holds the source -- fail closed.
            raise PlanDecodeError(
                f"plan wire_version {version} does not match supported "
                f"({PLAN_WIRE_VERSION}); recompile from source"
            )
        text = payload.get("module_text")
        if not isinstance(text, str):
            raise PlanDecodeError("serialized plan is missing module_text")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != payload.get("module_sha256"):
            raise PlanDecodeError(
                "module text does not match its recorded hash (corrupt entry)"
            )
        try:
            module = parse_assembly(text)
        except Exception as error:
            raise PlanDecodeError(
                f"serialized module text failed to parse: {error}"
            ) from error
        dist_block = payload.get("distribution")
        distribution = None
        if dist_block is not None:
            # Fail closed: a malformed distribution means a corrupt entry,
            # and serving bad probabilities silently is worse than a
            # recompile.
            if not isinstance(dist_block, dict):
                raise PlanDecodeError("distribution block must be an object")
            try:
                distribution = SampledDistribution.from_entries(
                    dist_block.get("entries")
                )
            except ValueError as error:
                raise PlanDecodeError(
                    f"corrupt distribution block: {error}"
                ) from error
        try:
            backend = str(payload.get("backend", "statevector"))
            entry = payload.get("entry")
            return cls(
                module=module,
                source_hash=str(payload["source_hash"]),
                key=str(payload["key"]),
                backend=backend,
                pipeline=payload.get("pipeline"),
                entry=entry,
                entry_point=payload.get("entry_point"),
                profile=payload.get("profile"),
                required_qubits=payload.get("required_qubits"),
                required_results=payload.get("required_results"),
                is_clifford=bool(payload.get("is_clifford", False)),
                compile_seconds=float(payload.get("compile_seconds", 0.0)),
                verified=bool(payload.get("verified", False)),
                # The fused schedule is derived analysis: recomputing it
                # from the decoded module is cheap and avoids serializing
                # NumPy matrices.
                fused=(
                    specialize_module(module, entry)
                    if backend == "statevector"
                    else None
                ),
                _dist=_MemoCell(distribution),
            )
        except KeyError as error:
            raise PlanDecodeError(f"serialized plan is missing {error}") from error


def _analyze_entry(
    module: Module, entry: Optional[str]
) -> Tuple[Optional[str], Optional[str], Optional[int], Optional[int]]:
    """Resolve the entry point and read its attributes -- tolerant: an
    unresolvable entry stays ``None`` and the interpreter raises its usual
    error at execution time, keeping compile-phase behaviour additive."""
    fn = None
    if entry is not None:
        candidate = module.get_function(entry)
        if candidate is not None and not candidate.is_declaration:
            fn = candidate
    else:
        entry_points = module.entry_points()
        if len(entry_points) == 1:
            fn = entry_points[0]
        elif not entry_points:
            defined = module.defined_functions()
            if len(defined) == 1:
                fn = defined[0]
    if fn is None:
        return None, None, None, None

    def _int_attr(key: str) -> Optional[int]:
        value = fn.get_attribute(key)
        try:
            return int(value) if value is not None else None
        except (TypeError, ValueError):
            return None

    return (
        fn.name,
        fn.get_attribute("qir_profiles"),
        _int_attr("required_num_qubits"),
        _int_attr("required_num_results"),
    )


def compile_plan(
    program: Union[str, Module],
    *,
    pipeline: PipelineLike = None,
    backend: str = "statevector",
    entry: Optional[str] = None,
    verify: bool = True,
    observer=None,
    module: Optional[Module] = None,
    source_hash: Optional[str] = None,
) -> ExecutionPlan:
    """Compile one program into a frozen :class:`ExecutionPlan`.

    ``module``/``source_hash`` let a caching front door (QirSession) hand
    in an already-parsed module for the pipeline-free case; otherwise the
    program is parsed (and hashed) here.  Passing ``pipeline`` always
    compiles a *fresh* parse even when ``module`` is given, because passes
    mutate IR in place and a cached pristine module must stay pristine.
    """
    obs = as_observer(observer)
    t0 = perf_counter()
    with obs.span("plan.compile", backend=backend, pipeline=str(pipeline or "-")):
        pipeline_name, factory = _resolve_pipeline(pipeline)
        digest = source_hash
        if digest is None:
            digest = content_hash(program)
        if module is not None and factory is None:
            compiled = module
        elif isinstance(program, Module):
            # A caller handing in a Module accepts in-place optimisation
            # (the established qir-run --opt behaviour).
            compiled = program
        else:
            # Pipelines mutate IR in place: run them on a private parse so
            # any cached pristine module stays pristine.
            compiled = parse_assembly(program, observer=obs)
        if verify:
            verify_module(compiled)
        if factory is not None:
            with obs.span("plan.passes", pipeline=pipeline_name):
                factory().run(compiled, observer=obs)
            if verify:
                verify_module(compiled)
        entry_point, profile, req_qubits, req_results = _analyze_entry(
            compiled, entry
        )
        clifford = program_is_clifford(compiled)
        fused = (
            specialize_module(compiled, entry)
            if backend == "statevector"
            else None
        )
    elapsed = perf_counter() - t0
    if obs.enabled:
        obs.inc("plan.compiled", pipeline=pipeline_name or "-", backend=backend)
        obs.observe("plan.compile_seconds", elapsed)
        if fused is not None:
            obs.inc("plan.fusion.kernels", fused.kernels)
            if fused.prefix_gates:
                obs.inc("plan.clifford_prefix.gates", fused.prefix_gates)
    return ExecutionPlan(
        module=compiled,
        source_hash=digest,
        key=plan_key(digest, pipeline_name, backend, entry),
        backend=backend,
        pipeline=pipeline_name,
        entry=entry,
        entry_point=entry_point,
        profile=profile,
        required_qubits=req_qubits,
        required_results=req_results,
        is_clifford=clifford,
        compile_seconds=elapsed,
        verified=verify,
        fused=fused,
    )
