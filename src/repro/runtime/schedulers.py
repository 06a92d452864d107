"""The execute phase: pluggable shot schedulers over a compiled program.

The compile phase (:mod:`repro.runtime.plan`) produces a frozen,
read-only artifact; this module spends it.  A :class:`ShotScheduler`
turns "run N shots of this module" into per-shot tasks:

* :class:`SerialScheduler` -- the historical in-order loop;
* :class:`BatchedScheduler` -- one vectorised multi-shot statevector
  evolution (:class:`~repro.sim.statevector.BatchedStatevectorSimulator`)
  for non-Clifford per-shot workloads where the deferred-measurement
  sampling fast path is inapplicable (mid-circuit reset, re-measurement,
  gates after measurement).  Programs with *classical feedback* on a
  measurement abort with :class:`BatchedUnsupported` and fall back to the
  per-shot loop;
* :class:`AutoScheduler` -- the default: a :class:`BatchedScheduler`
  that only batches plans at most :data:`AUTO_BATCHED_MAX_QUBITS` wide
  (and runs the serial loop otherwise).  Like every scheduler except
  ``batched`` it runs only after the sampling tiers declined;
* :class:`ProcessScheduler` -- N worker *processes* draining a shared
  :class:`~repro.runtime.dispatch.ChunkQueue` (the supervisor drains it
  into pool waves; the executor's idle processes self-schedule the
  chunks within a wave), for the pure-Python-bound per-shot workloads
  the GIL keeps on one core.  Workers receive the compiled program as
  a *serialized* :class:`~repro.runtime.plan.ExecutionPlan`
  (``to_bytes``), never re-running verify/passes/analysis.

Determinism: every shot's RNG is derived from a spawned child seed --
``SeedSequence(entropy=root, spawn_key=(shot, attempt))`` -- never from a
shared stream, and the merge re-sorts outcomes by shot index, so serial,
batched, and process execution of the same program with the same seed
produce identical ``counts``.

Resilience (retry / fault injection / backend fallback) hooks in at the
per-shot *task* level, so every scheduler gets the same semantics: a
failing shot is retried per policy, the shared
:class:`~repro.resilience.fallback.FallbackChain` is consulted under a
lock (demotions happen exactly once per rung even under concurrency),
and unrecovered failures become structured records on the result.  The
one documented divergence is process fallback: workers cannot share a
lock across process boundaries, so each worker demotes *its own* clone
of the chain (fault decisions stay deterministic per shot), and the
merge ORs the ``degraded`` flags and concatenates histories in worker
order -- a demotion in any worker marks the whole run degraded, but
shots in other workers may still have run on the original rung.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.llvmir.module import Module
from repro.obs.observer import NULL_OBSERVER
from repro.resilience.fallback import BackendLevel, FallbackChain
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultyBackend,
    ProcessFaultDecision,
    ShotFaultContext,
    corrupt_bytes,
)
from repro.resilience.report import ShotFailure, render_failure_report
from repro.resilience.retry import RetryPolicy
from repro.runtime.dispatch import Chunk, ChunkQueue
from repro.runtime.errors import (
    PoolStartupError,
    QirRuntimeError,
    SchedulerExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.runtime.interpreter import Interpreter, InterpreterStats
from repro.runtime.output import OutputRecord
from repro.runtime.results import ResultStore
from repro.runtime.values import IntPtr
from repro.sim.fusion import FusedProgram, run_fused, run_fused_batched
from repro.sim.noise import NoiseModel, NoisyBackend
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.statevector import BatchedStatevectorSimulator, StatevectorSimulator

if TYPE_CHECKING:
    from repro.runtime.plan import ExecutionPlan

SCHEDULERS = ("auto", "serial", "batched", "process")

#: Widest plan (``required_qubits``) the ``auto`` scheduler batches.
#: Backed by the ``runtime.scheduler.auto_ratio`` sweep of ``qir-bench
#: run`` (reset_chain_qir, 2 vCPUs): batched runs about 1.9x serial at 8
#: qubits, 1.3-1.5x at 10 and 1.03-1.2x at 12, but 0.9x at 14.
AUTO_BATCHED_MAX_QUBITS = 12

SeedLike = Union[int, np.random.SeedSequence, None]

#: spawn_key component reserved for retry-backoff jitter streams, far above
#: any realistic attempt index so it can never collide with one.
_BACKOFF_KEY = 0x7FFF0001

#: spawn_key component for the sampling fast path's one-evolution seed.
_FASTPATH_KEY = 0x7FFF0002


def fastpath_sequence(root: np.random.SeedSequence) -> np.random.SeedSequence:
    """The sampling fast path's seed, spawned off the run's root.

    Deriving it from the root (instead of drawing another value from the
    runtime's stream) keeps the stream position identical whether or not
    a fast-path attempt happens first -- so a rejected attempt cannot
    shift the per-shot seeds, and every scheduler sees the same root.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (_FASTPATH_KEY,)
    )

#: Overall amplitude budget for one batched chunk (4 MiB of complex128).
#: Chunks that outgrow the core's cache lose to the per-shot loop: on
#: reset_chain_qir(12) at 800 shots, a 128 MiB budget ran 0.6x serial
#: and this one 1.03x (2 vCPUs, 2 MiB L2 per core).
_BATCH_AMPLITUDE_BUDGET = 1 << 18
_BATCH_CHUNK_CAP = 1024
#: Members in the first chunk of an interpreted batch.  A program that
#: cannot run batched aborts in its first chunk (every chunk walks the
#: same instruction stream), so a small first chunk caps what a doomed
#: attempt throws away: teleportation at 500 shots aborted after ~15 ms
#: of batch work without it and ~1 ms with it.
_BATCH_PROBE_MEMBERS = 8


def shot_sequence(
    root: np.random.SeedSequence, shot: int, attempt: int
) -> np.random.SeedSequence:
    """The spawned child seed for one (shot, attempt) pair.

    A pure function of ``(root, shot, attempt)`` -- independent of
    execution order, worker assignment, retries of *other* shots, and
    scheduler choice -- which is the whole determinism story: any
    scheduler computing the same pairs derives the same RNG streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (shot, attempt)
    )


def _noise_sequence(seed: SeedLike) -> SeedLike:
    """A decorrelated stream for the noise wrapper (see _make_backend)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (1,)
        )
    if seed is None:
        return None
    return (int(seed) ^ 0x9E3779B97F4A7C15) & (2**63 - 1)


def _make_backend(
    name: str,
    seed: SeedLike,
    max_qubits: int,
    noise: Optional[NoiseModel] = None,
):
    if name == "statevector":
        backend = StatevectorSimulator(0, seed=seed, max_qubits=max_qubits)
    elif name == "stabilizer":
        backend = StabilizerSimulator(0, seed=seed)
    else:
        raise ValueError(f"unknown backend {name!r}")
    if noise is not None and not noise.is_trivial:
        # The wrapper needs its own stream: seeding it identically to the
        # inner simulator would correlate error injection with measurement
        # outcomes (their first random draws would coincide).
        return NoisyBackend(backend, noise, seed=_noise_sequence(seed))
    return backend


def sorted_counts(counts: Dict[str, int]) -> Dict[str, int]:
    """Stable bitstring ordering so reports and diffs are deterministic."""
    return dict(sorted(counts.items()))


# -- results ------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Outcome of one shot."""

    output_records: List[OutputRecord]
    result_bits: List[int]
    bitstring: str
    messages: List[str]
    stats: InterpreterStats
    return_value: object = None

    def render_output(self) -> str:
        return "\n".join(r.render() for r in self.output_records)


@dataclass
class ShotsResult:
    """Aggregate over many shots.

    ``counts`` holds the successful shots only, with bitstring keys in
    stable (sorted) order.  ``shots`` is the number *requested*; use
    ``successful_shots`` as the denominator for rates so a partially
    failed run does not skew downstream statistics.
    """

    counts: Dict[str, int]
    shots: int
    per_shot_stats: List[InterpreterStats] = field(default_factory=list)
    used_fast_path: bool = False
    #: True when a warm plan's cached sampling distribution served these
    #: counts with zero simulation (implies ``used_fast_path``).
    distribution_served: bool = False
    # -- observability (repro.obs) --------------------------------------------
    wall_seconds: float = 0.0
    #: ULID-style identity of this run (see repro.obs.runctx); empty when
    #: the run carried no RunContext (no observer, no ledger, none passed).
    run_id: str = ""
    # Per-backend InterpreterStats aggregation (keep_stats=True in resilient
    # mode): after a FallbackChain demotion the work done on each rung of
    # the ladder stays attributable.
    per_backend_stats: Dict[str, InterpreterStats] = field(default_factory=dict)
    # -- partial-result recovery (resilient mode) -----------------------------
    failed_shots: List[ShotFailure] = field(default_factory=list)
    per_error_counts: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    backend_shot_counts: Dict[str, int] = field(default_factory=dict)
    fallback_history: List[str] = field(default_factory=list)
    retried_shots: int = 0
    # -- execute phase (repro.runtime.schedulers) -----------------------------
    scheduler: str = "serial"
    #: Worker-supervision record of a process-scheduler run (None for the
    #: in-process schedulers and for process runs normalized to serial).
    supervision: Optional["SupervisionRecord"] = None

    @property
    def total_shots(self) -> int:
        """Shots requested (successes + failures)."""
        return self.shots

    @property
    def successful_shots(self) -> int:
        return self.shots - len(self.failed_shots)

    def probabilities(self) -> Dict[str, float]:
        denominator = self.successful_shots
        if denominator <= 0:
            return {}
        return {k: v / denominator for k, v in self.counts.items()}

    @property
    def shots_per_second(self) -> float:
        """Successful-shot throughput over the measured wall time.

        Coarse clocks can report ``wall_seconds == 0`` for very fast runs
        (notably the sampling fast path); the convention -- shared with
        ``render_timing_line`` and the ``runtime.shots_per_second`` gauge
        -- is to report ``0.0`` ("not measurable"), never ``inf``/``nan``.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.successful_shots / self.wall_seconds

    def aggregated_stats(self) -> InterpreterStats:
        """Sum of per-shot stats (requires ``keep_stats=True``)."""
        return InterpreterStats.aggregate(self.per_shot_stats)

    def failure_report(self) -> str:
        supervision = None
        if self.supervision is not None and self.supervision.worker_failures:
            supervision = self.supervision.summary()
        return render_failure_report(
            self.failed_shots,
            self.per_error_counts,
            self.degraded,
            self.fallback_history,
            wall_seconds=self.wall_seconds,
            successful_shots=self.successful_shots,
            supervision=supervision,
            run_id=self.run_id,
        )


# -- worker supervision -------------------------------------------------------


@dataclass
class SupervisionRecord:
    """What the process scheduler's supervisor saw and did in one run.

    The state machine (documented in DESIGN.md): **healthy** while every
    dispatched chunk reports back; **degraded** once a worker crashed,
    hung, or corrupted its report and the lost chunks were re-dispatched;
    **demoted** when ``max_worker_failures`` failed rounds tripped the
    circuit breaker and the remaining shots ran on a cheaper scheduler.
    """

    rounds: int = 0
    crashes: int = 0
    hangs: int = 0
    ipc_corruptions: int = 0
    redispatches: int = 0
    failed_rounds: int = 0
    breaker_tripped: bool = False
    demoted_to: Optional[str] = None
    worker_timeout: Optional[float] = None
    last_error_code: str = ""
    events: List[str] = field(default_factory=list)

    @property
    def worker_failures(self) -> int:
        """Chunks lost to infrastructure, across all rounds."""
        return self.crashes + self.hangs + self.ipc_corruptions

    @property
    def state(self) -> str:
        """``healthy`` / ``degraded`` / ``demoted`` (see class docstring)."""
        if self.demoted_to is not None:
            return "demoted"
        if self.worker_failures:
            return "degraded"
        return "healthy"

    def note(self, event: str) -> None:
        self.events.append(event)

    def summary(self) -> str:
        text = (
            f"state={self.state} rounds={self.rounds} crashes={self.crashes} "
            f"hangs={self.hangs} ipc_corrupt={self.ipc_corruptions} "
            f"redispatched={self.redispatches}"
        )
        if self.demoted_to is not None:
            text += f" demoted_to={self.demoted_to}"
        return text


# -- per-shot execution -------------------------------------------------------


@dataclass
class ShotOutcome:
    """One shot's contribution to the merge, whichever worker produced it."""

    shot: int
    bitstring: Optional[str] = None
    backend_label: str = ""
    attempts: int = 1
    seconds: Optional[float] = None
    stats: Optional[InterpreterStats] = None
    failure: Optional[ShotFailure] = None

    @property
    def succeeded(self) -> bool:
        return self.failure is None


class ChainGuard:
    """Thread-safe facade over a shared :class:`FallbackChain`.

    All mutation happens under one lock, so consecutive-failure counting
    stays coherent and each rung of the ladder is demoted at most once no
    matter how many workers observe failures concurrently.
    """

    def __init__(self, chain: FallbackChain):
        self._chain = chain
        self._lock = threading.Lock()
        self._initial_history = len(chain.history)
        # Worker-process merge state (see ProcessScheduler): demotions
        # performed inside worker clones, folded back in worker order.
        self._worker_degraded = False
        self._worker_history: List[str] = []

    @property
    def current(self) -> BackendLevel:
        with self._lock:
            return self._chain.current

    def note_success(self) -> None:
        with self._lock:
            self._chain.note_success()

    def note_failure(self, error: QirRuntimeError) -> bool:
        with self._lock:
            return self._chain.note_failure(error)

    def worker_chain(self) -> FallbackChain:
        """A picklable clone for one worker process (empty history)."""
        with self._lock:
            return self._chain.worker_clone()

    def absorb_worker(self, degraded: bool, history: List[str]) -> None:
        """Fold one worker clone's demotion record into the merged view."""
        with self._lock:
            self._worker_degraded = self._worker_degraded or degraded
            self._worker_history.extend(history)

    def note_scheduler_demotion(self, entry: str) -> None:
        """Record a *scheduler*-ladder demotion (process -> serial, see
        :class:`ProcessScheduler`) in the shared history.

        Scheduler demotions ride the same history/degraded channel as
        backend demotions so reports, metrics, and callers see one
        unified degradation record."""
        with self._lock:
            self._worker_degraded = True
            self._worker_history.append(entry)

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._chain.degraded or self._worker_degraded

    @property
    def history(self) -> List[str]:
        with self._lock:
            return list(self._chain.history) + list(self._worker_history)

    @property
    def demotions_this_run(self) -> int:
        with self._lock:
            return (
                len(self._chain.history)
                - self._initial_history
                + len(self._worker_history)
            )


class _BackoffStream:
    """Per-shot retry-jitter RNG, created lazily on the first wait.

    One stream per *shot*, shared across fallback demotions.
    ``attempt_shot`` used to build its own generator per invocation, but
    it is re-invoked after every fallback demotion (``attempt_offset``),
    so the jitter sequence restarted mid-shot and retry timing depended
    on the demotion history.  Holding the stream here makes the delay
    sequence a pure function of ``(root, shot)`` -- reproducible in
    tests regardless of how many rungs the shot visits -- while keeping
    the clean path free of SeedSequence construction.
    """

    __slots__ = ("_root", "_shot", "_rng")

    def __init__(self, root: np.random.SeedSequence, shot: int):
        self._root = root
        self._shot = shot
        self._rng: Optional[np.random.Generator] = None

    def generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(
                shot_sequence(self._root, self._shot, _BACKOFF_KEY)
            )
        return self._rng


class ShotExecutor:
    """Executes single shots for one runtime configuration.

    Stateless between shots (every per-shot RNG comes in as an explicit
    seed), which is what makes it shareable across scheduler workers.
    """

    def __init__(
        self,
        backend_name: str,
        noise: Optional[NoiseModel],
        step_limit: int,
        max_qubits: int,
        allow_on_the_fly_qubits: bool,
        observer,
    ):
        self.backend_name = backend_name
        self.noise = noise
        self.step_limit = step_limit
        self.max_qubits = max_qubits
        self.allow_on_the_fly_qubits = allow_on_the_fly_qubits
        self.observer = observer

    # -- configuration helpers ------------------------------------------------
    def effective_noise(self, level: BackendLevel) -> Optional[NoiseModel]:
        if not level.noisy:
            return None
        return self.noise

    def level_label(self, level: BackendLevel) -> str:
        noise = self.effective_noise(level)
        if noise is not None and not noise.is_trivial:
            return f"{level.backend}+noise"
        return level.backend

    # -- single attempt -------------------------------------------------------
    def run_single(
        self,
        module: Module,
        entry: Optional[str],
        level: BackendLevel,
        ctx: Optional[ShotFaultContext],
        seed: SeedLike,
        schedule: Optional[FusedProgram] = None,
    ) -> ExecutionResult:
        if schedule is not None and self._fusable(level, ctx):
            return self._run_fused_single(schedule, seed)
        backend = _make_backend(
            level.backend, seed, self.max_qubits, self.effective_noise(level)
        )
        step_limit = self.step_limit
        fault_hook = None
        if ctx is not None and not ctx.is_inert:
            backend = FaultyBackend(backend, ctx)
            step_limit = ctx.step_limit(self.step_limit)
            if ctx.wants_intrinsic_hook:
                fault_hook = ctx.intrinsic_hook
        interp = Interpreter(
            module,
            backend,
            step_limit=step_limit,
            allow_on_the_fly_qubits=self.allow_on_the_fly_qubits,
            fault_hook=fault_hook,
            observer=self.observer,
        )
        value = interp.run(entry)
        bits = interp.output.result_bits()
        # If the program recorded no output, fall back to the static result
        # table so base-profile programs without an epilogue still report.
        if not bits and interp.results.max_static_index >= 0:
            table = interp.results.static_bits(interp.results.max_static_index + 1)
            bits = [table[i] for i in sorted(table)]
        if ctx is not None and not ctx.is_inert:
            bits = ctx.mangle_bits(bits)
        bitstring = "".join(str(b) for b in reversed(bits))
        return ExecutionResult(
            output_records=list(interp.output.records),
            result_bits=bits,
            bitstring=bitstring,
            messages=list(interp.messages),
            stats=interp.stats,
            return_value=value,
        )

    def _fusable(
        self, level: BackendLevel, ctx: Optional[ShotFaultContext]
    ) -> bool:
        """Whether this attempt may take the fused kernel path.

        Conservative on purpose: the fused executor models the clean
        statevector semantics only, so anything that perturbs them --
        another backend rung, real noise, an active fault context --
        keeps the interpreter path.
        """
        if level.backend != "statevector":
            return False
        if ctx is not None and not ctx.is_inert:
            return False
        noise = self.effective_noise(level)
        return noise is None or noise.is_trivial

    def _run_fused_single(
        self, schedule: FusedProgram, seed: SeedLike
    ) -> ExecutionResult:
        """One shot through the precompiled kernel schedule.

        The simulator is seeded exactly like the interpreter path's
        backend, and the schedule preserves the source's measure/reset
        order, so the RNG draw sequence -- and therefore the outcome --
        is bit-identical to an unfused run of the same ``(root, shot,
        attempt)``.
        """
        backend = _make_backend("statevector", seed, self.max_qubits, None)
        bits, bitstring = run_fused(schedule, backend)
        # Coarse synthesized stats: the interpreter's per-instruction
        # bookkeeping does not exist here, but gate/measurement totals
        # keep profiled runs meaningful.
        stats = InterpreterStats()
        stats.gates = schedule.source_gates
        stats.measurements = schedule.measurements
        stats.quantum_calls = schedule.source_gates + schedule.measurements
        return ExecutionResult(
            output_records=[],
            result_bits=bits,
            bitstring=bitstring,
            messages=[],
            stats=stats,
            return_value=None,
        )

    # -- one shot with retry --------------------------------------------------
    def attempt_shot(
        self,
        module: Module,
        entry: Optional[str],
        level: BackendLevel,
        ctx: Optional[ShotFaultContext],
        policy: RetryPolicy,
        root: np.random.SeedSequence,
        shot: int,
        attempt_offset: int,
        backoff: _BackoffStream,
        schedule: Optional[FusedProgram] = None,
    ) -> Tuple[Optional[ExecutionResult], Optional[QirRuntimeError], int]:
        """Run one shot with per-attempt retry; returns (result, error, attempts).

        ``attempt_offset`` keeps attempt indices -- and therefore spawned
        seeds -- globally increasing for a shot across fallback demotions,
        and ``backoff`` carries the shot's one jitter stream across those
        same demotions (see :class:`_BackoffStream`).
        """
        noisy = self.effective_noise(level) is not None
        last_error: Optional[QirRuntimeError] = None
        for attempt in range(1, policy.max_attempts + 1):
            index = attempt_offset + attempt - 1
            if ctx is not None:
                ctx.begin_attempt(index, level.backend, noisy)
            seed = shot_sequence(root, shot, index)
            try:
                return (
                    self.run_single(module, entry, level, ctx, seed, schedule),
                    None,
                    attempt,
                )
            except QirRuntimeError as error:
                last_error = error
                if not policy.should_retry(error, attempt):
                    return None, error, attempt
                policy.wait(attempt, backoff.generator())
        return None, last_error, policy.max_attempts

    def run_shot(
        self,
        module: Module,
        entry: Optional[str],
        shot: int,
        root: np.random.SeedSequence,
        chain: ChainGuard,
        injector: Optional[FaultInjector],
        policy: RetryPolicy,
        keep_result_stats: bool,
        collect: bool,
        timed: bool,
        schedule: Optional[FusedProgram] = None,
    ) -> ShotOutcome:
        """The per-shot task: retry, fallback, and failure collection.

        With ``collect=False`` (the plain, non-resilient path) the first
        unrecovered error propagates to the caller, matching the
        historical fail-fast semantics.
        """
        ctx = injector.context(shot) if injector is not None else None
        total_attempts = 0
        backoff = _BackoffStream(root, shot)
        t0 = perf_counter() if timed else 0.0
        while True:
            level = chain.current
            result, error, attempts = self.attempt_shot(
                module,
                entry,
                level,
                ctx,
                policy,
                root,
                shot,
                total_attempts,
                backoff,
                schedule,
            )
            total_attempts += attempts
            if error is None:
                assert result is not None
                chain.note_success()
                return ShotOutcome(
                    shot=shot,
                    bitstring=result.bitstring,
                    backend_label=self.level_label(level),
                    attempts=total_attempts,
                    seconds=(perf_counter() - t0) if timed else None,
                    stats=result.stats if keep_result_stats else None,
                )
            if chain.note_failure(error):
                continue  # demoted: replay this shot on the new level
            if not collect:
                raise error
            failure = ShotFailure.from_error(
                shot, error, total_attempts, self.level_label(level)
            )
            return ShotOutcome(
                shot=shot,
                backend_label=self.level_label(level),
                attempts=total_attempts,
                seconds=(perf_counter() - t0) if timed else None,
                failure=failure,
            )


@dataclass
class ShotTask:
    """Everything a scheduler needs to run one multi-shot request."""

    executor: ShotExecutor
    module: Module
    entry: Optional[str]
    shots: int
    root: np.random.SeedSequence
    policy: RetryPolicy
    injector: Optional[FaultInjector]
    chain: ChainGuard
    keep_stats: bool
    resilient: bool
    timed: bool
    required_qubits: Optional[int] = None
    #: Serialized ExecutionPlan for process workers (set by the runtime
    #: whenever the process scheduler is selected); workers deserialize
    #: this instead of re-running the compile phase.
    plan_bytes: Optional[bytes] = None
    #: Run identity (repro.obs.runctx); rides the pickled _WorkerChunk into
    #: process workers so their reports join the parent's trace and ledger.
    run_id: str = ""
    #: Fused kernel schedule from the plan's specialization pass; ``None``
    #: disables fusion for this run (not specializable, or --no-fusion).
    schedule: Optional[FusedProgram] = None
    #: The compiled plan being run, when there is one for this entry: the
    #: batched schedulers read and write its batched-decline memo.
    plan: Optional["ExecutionPlan"] = None

    def run_one(self, shot: int) -> ShotOutcome:
        # Outcome stats are kept whenever the run is profiled (the merge
        # folds intrinsic metrics from them) or the caller asked for them.
        keep = self.keep_stats or self.timed
        return self.executor.run_shot(
            self.module,
            self.entry,
            shot,
            self.root,
            self.chain,
            self.injector,
            self.policy,
            keep,
            collect=self.resilient,
            timed=self.timed,
            schedule=self.schedule,
        )


# -- schedulers ---------------------------------------------------------------


class SerialScheduler:
    """The historical in-order loop (one shot at a time)."""

    name = "serial"
    jobs = 1

    def run(self, task: ShotTask) -> List[ShotOutcome]:
        return [task.run_one(shot) for shot in range(task.shots)]


# -- process execution --------------------------------------------------------


@dataclass
class _WorkerChunk:
    """Everything one worker process needs, all of it picklable.

    The program travels as serialized plan bytes; resilience state as a
    lock-free :meth:`~repro.resilience.fallback.FallbackChain.worker_clone`
    and the raw :class:`FaultPlan` (per-shot fault decisions are pure
    functions of ``(plan.seed, rule, shot)``, so per-worker injectors
    reconstruct the exact failure set any other scheduler would see).
    """

    index: int
    start: int
    stop: int
    plan_bytes: bytes
    entry: Optional[str]
    backend_name: str
    noise: Optional[NoiseModel]
    step_limit: int
    max_qubits: int
    allow_on_the_fly_qubits: bool
    policy: RetryPolicy
    fault_plan: Optional[FaultPlan]
    chain: FallbackChain
    keep_stats: bool
    resilient: bool
    root: np.random.SeedSequence
    #: This chunk's dispatch attempt (0 on first dispatch, +1 each time the
    #: queue re-enqueues it after a loss); gates transient process-level
    #: fault rules.  The field keeps its historical name so pickled chunks
    #: and test fixtures stay valid across the round -> queue refactor.
    round_index: int = 0
    #: Heartbeat channel (a multiprocessing.Manager dict proxy) when the
    #: supervisor's watchdog is armed; None means run unwatched.
    heartbeat: Optional[object] = None
    #: Minimum seconds between heartbeat writes (IPC cost gate).
    beat_interval: float = 0.0
    #: Run identity (repro.obs.runctx) of the dispatching run, so worker
    #: telemetry joins the parent's trace/ledger.
    run_id: str = ""
    #: Parent's ``perf_counter()`` at dispatch.  Workers report their own
    #: clock relative to this so the merge can rebase span timestamps;
    #: 0.0 means "no rebase information" (older dispatchers, tests).
    dispatch_clock: float = 0.0
    #: Whether workers may use the decoded plan's fused schedule (mirrors
    #: the parent's fusion toggle; the schedule itself is recomputed from
    #: the plan bytes, never pickled).
    fused_enabled: bool = True


@dataclass
class _WorkerReport:
    """One worker's merged contribution, shipped back to the parent."""

    index: int
    outcomes: List[ShotOutcome]
    degraded: bool
    history: List[str]
    faults_raised: int
    seconds: float
    #: Fail-fast mode only: the first error this worker's chunk hit (the
    #: chunk stops there, mirroring the serial loop's early exit).
    error: Optional[QirRuntimeError] = None
    error_shot: int = -1
    #: Parent's dispatch clock echoed back, plus the worker's start time
    #: relative to it (``worker_t0 - dispatch_clock``).  With a ``fork``
    #: start method both processes share CLOCK_MONOTONIC, so the offset is
    #: the real dispatch->start latency; the merge clamps implausible
    #: values (``spawn`` does not guarantee a shared origin).
    dispatch_clock: float = 0.0
    start_offset: float = -1.0
    #: The chunk's shot range and dispatch attempt, echoed back so the
    #: merged ``process.worker`` span can say *which* shots this worker
    #: interval covered (qir-trace workers reads these tags).
    start: int = 0
    stop: int = 0
    round_index: int = 0
    #: The worker process's identity and how many chunks it had already
    #: run (``seq``); the merge maps pids to stable worker ids and tags
    #: ``seq > 0`` chunks as self-scheduled steals.
    pid: int = 0
    seq: int = 0


#: How many chunks *this* process has run (always 0 in the parent: only
#: worker processes call :func:`_run_worker_chunk`).  ``fork`` children
#: inherit the parent's 0; ``spawn`` children re-import to 0.
_WORKER_RUNS = 0

#: One-slot per-process plan cache.  Workers that pull several chunks of
#: the same run decode the serialized plan once, not once per chunk --
#: the whole point of small self-scheduled chunks would otherwise drown
#: in repeated parse cost.
_WORKER_PLAN: Optional[Tuple[bytes, object]] = None


def _worker_plan(plan_bytes: bytes):
    """Decode (or reuse) this process's cached :class:`ExecutionPlan`."""
    global _WORKER_PLAN
    # Imported here, not at module top: plan.py imports nothing from this
    # module at call time, but keeping the worker's import surface explicit
    # makes the spawn path's cost visible in one place.
    from repro.runtime.plan import ExecutionPlan

    cached = _WORKER_PLAN
    if cached is not None and cached[0] == plan_bytes:
        return cached[1]
    plan = ExecutionPlan.from_bytes(plan_bytes)
    _WORKER_PLAN = (plan_bytes, plan)
    return plan


def _run_worker_chunk(chunk: _WorkerChunk) -> Union[_WorkerReport, bytes]:
    """The worker-process entry point: deserialize the plan, run a
    contiguous shot range, report outcomes plus resilience deltas.

    Must stay a module-level function (spawn pickles it by reference).
    Workers run unobserved -- metric folding happens in the parent's
    order-independent merge.

    Chaos hooks: a :class:`~repro.resilience.faults.FaultPlan` with
    process-level sites decides this chunk's fate up front (a pure
    function of the plan, the shot range, and the chunk's dispatch
    attempt).  ``worker_crash`` hard-exits before running the poisoned
    shot, ``worker_hang`` stops heartbeating and sleeps until the
    supervisor terminates the process, and ``ipc_corrupt`` ships mangled
    bytes instead of the report.  None of them touch interpreter state,
    so the shots a re-enqueued chunk re-runs are bit-identical.
    """
    global _WORKER_RUNS
    seq = _WORKER_RUNS
    _WORKER_RUNS += 1
    t0 = perf_counter()
    decision = (
        chunk.fault_plan.process_decision(chunk.start, chunk.stop, chunk.round_index)
        if chunk.fault_plan is not None
        else None
    )
    heartbeat = chunk.heartbeat
    if heartbeat is not None:
        try:
            heartbeat[chunk.index] = 0  # "started" beat
        except Exception:
            heartbeat = None  # manager unreachable; run unwatched
    beats = 0
    last_beat = perf_counter()
    plan = _worker_plan(chunk.plan_bytes)
    executor = ShotExecutor(
        chunk.backend_name,
        chunk.noise,
        chunk.step_limit,
        chunk.max_qubits,
        chunk.allow_on_the_fly_qubits,
        NULL_OBSERVER,
    )
    guard = ChainGuard(chunk.chain)
    injector = (
        FaultInjector(chunk.fault_plan) if chunk.fault_plan is not None else None
    )
    outcomes: List[ShotOutcome] = []
    error: Optional[QirRuntimeError] = None
    error_shot = -1
    for shot in range(chunk.start, chunk.stop):
        if decision is not None:
            if shot == decision.crash_shot:
                os._exit(86)  # simulated hard crash: no cleanup, no report
            if shot == decision.hang_shot:
                # Simulated wedge: no more heartbeats, just sleep until
                # the supervisor's watchdog terminates us.  Bounded so an
                # unsupervised run cannot hang forever.
                sleep(3600.0)
                os._exit(87)
        if heartbeat is not None:
            now = perf_counter()
            if now - last_beat >= chunk.beat_interval:
                beats += 1
                try:
                    heartbeat[chunk.index] = beats
                except Exception:
                    heartbeat = None
                last_beat = now
        try:
            outcomes.append(
                executor.run_shot(
                    plan.module,
                    chunk.entry,
                    shot,
                    chunk.root,
                    guard,
                    injector,
                    chunk.policy,
                    chunk.keep_stats,
                    collect=chunk.resilient,
                    timed=False,
                    schedule=plan.fused if chunk.fused_enabled else None,
                )
            )
        except QirRuntimeError as exc:
            # Fail-fast (non-resilient) semantics: stop the chunk at its
            # first failure; the parent raises the globally-first one.
            error = exc
            error_shot = shot
            break
    report = _WorkerReport(
        index=chunk.index,
        outcomes=outcomes,
        degraded=chunk.chain.degraded,
        history=list(chunk.chain.history),
        faults_raised=injector.stats.faults_raised if injector is not None else 0,
        seconds=perf_counter() - t0,
        error=error,
        error_shot=error_shot,
        dispatch_clock=chunk.dispatch_clock,
        start_offset=(t0 - chunk.dispatch_clock) if chunk.dispatch_clock else -1.0,
        start=chunk.start,
        stop=chunk.stop,
        round_index=chunk.round_index,
        pid=os.getpid(),
        seq=seq,
    )
    if decision is not None and decision.corrupt_report:
        # The work was done; the IPC payload is what gets mangled.  The
        # parent sees "not a _WorkerReport" and treats the chunk as lost.
        return corrupt_bytes(
            pickle.dumps(report), seed=chunk.fault_plan.seed ^ (chunk.index + 1)
        )
    return report


def _default_start_method() -> str:
    """Prefer ``fork`` where available (no per-worker interpreter boot or
    re-import cost); ``spawn`` elsewhere.  Workers never rely on inherited
    state either way -- everything arrives via the pickled chunk."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class ProcessScheduler:
    """N worker processes draining a shared self-scheduled chunk queue.

    The GIL escape hatch: pure-Python-bound per-shot workloads (small
    registers, interpreter-dominated cost) scale with cores only across
    processes.  The shot range becomes a
    :class:`~repro.runtime.dispatch.ChunkQueue` of guided-size chunks;
    the supervisor drains the queue into the pool in *waves* (all
    pending chunks submitted at once), and the executor's idle processes
    self-schedule them -- a fast worker simply runs more chunks, so one
    straggler caps a chunk, not an N-th of the run.  Each worker decodes
    the compiled :class:`~repro.runtime.plan.ExecutionPlan` from bytes
    once per process (parse of printed IR only; verify, passes, and
    analysis never re-run), executes chunks with the same spawned
    per-shot seeds every other scheduler uses, and ships outcomes back
    for the shared order-independent merge -- so counts are
    bit-identical to serial for a fixed seed.

    Resilience: retry and fault injection are per-shot-deterministic and
    behave exactly as in serial.  Backend fallback degrades to
    *per-worker* demotion (documented in the module docstring): each
    worker demotes its own chain clone, and the merged result ORs the
    ``degraded`` flags and concatenates histories in worker order.

    Supervision (the DESIGN.md state machine) rides on queue state:
    every dispatch wave is watched.  A worker that dies takes the whole
    ``ProcessPoolExecutor`` with it (``BrokenProcessPool``), a worker
    that stops heartbeating within ``worker_timeout`` is terminated, and
    a worker whose IPC payload fails to deserialize is distrusted -- in
    all three cases the affected chunks are *lost*, not fatal: each one
    is simply re-enqueued with its dispatch ``attempt`` bumped, and
    because per-shot seeds are pure functions of ``(root, shot,
    attempt)`` the re-run reproduces bit-identical outcomes.  After
    ``max_worker_failures`` failed waves a circuit breaker stops paying
    pool-restart costs and demotes the remaining shots ``process ->
    serial``, recording the demotion in the shared fallback
    history.  ``worker_timeout=None`` (the default) skips the heartbeat
    channel entirely, so the clean path pays no Manager/IPC overhead;
    it is auto-armed when a fault plan injects ``worker_hang`` so a
    chaos run can never wedge.  The watchdog only judges chunks whose
    worker has *started* (first heartbeat written): a chunk waiting in
    the executor's queue is not hung, it just has not been pulled yet.
    """

    name = "process"

    #: Watchdog deadline auto-armed for worker_hang chaos runs (seconds).
    AUTO_HANG_TIMEOUT = 10.0

    #: Extra seconds granted before a worker's *first* heartbeat: process
    #: startup (fork/spawn, plan deserialization) is the pool's cost, not
    #: the worker's, and under load it can exceed a tight ``worker_timeout``
    #: -- without the grace a slow-starting healthy worker reads as hung.
    STARTUP_GRACE = 10.0

    def __init__(
        self,
        jobs: int = 2,
        start_method: Optional[str] = None,
        worker_timeout: Optional[float] = None,
        max_worker_failures: int = 2,
        chunk_shots: Optional[int] = None,
        min_chunk_shots: Optional[int] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be > 0 seconds")
        if max_worker_failures < 1:
            raise ValueError("max_worker_failures must be >= 1")
        if chunk_shots is not None and chunk_shots < 1:
            raise ValueError("chunk_shots must be >= 1")
        if min_chunk_shots is not None and min_chunk_shots < 1:
            raise ValueError("min_chunk_shots must be >= 1")
        self.jobs = jobs
        self.start_method = start_method or _default_start_method()
        self.worker_timeout = worker_timeout
        self.max_worker_failures = max_worker_failures
        self.chunk_shots = chunk_shots
        self.min_chunk_shots = min_chunk_shots
        #: What actually ran: flips to "serial" when the pool would be
        #: pointless (one shot, or one worker).
        self.effective = "process"
        #: :class:`SupervisionRecord` of the most recent supervised run
        #: (None until one happens); the runtime attaches it to the
        #: :class:`ShotsResult`.
        self.supervision: Optional[SupervisionRecord] = None

    def run(self, task: ShotTask) -> List[ShotOutcome]:
        self.supervision = None
        if task.shots <= 1 or self.jobs == 1:
            self.effective = "serial"
            return SerialScheduler().run(task)
        if task.plan_bytes is None:
            raise ValueError(
                "process scheduler needs task.plan_bytes (a serialized "
                "ExecutionPlan); run it through QirRuntime.run_shots"
            )
        supervision = self.supervision = SupervisionRecord()
        obs = task.executor.observer
        t0 = perf_counter()
        try:
            return self._run_supervised(task, supervision, obs, t0)
        finally:
            if obs.enabled:
                obs.tracer.complete(
                    "process.supervisor",
                    start=t0,
                    seconds=perf_counter() - t0,
                    rounds=supervision.rounds,
                    crashes=supervision.crashes,
                    hangs=supervision.hangs,
                    redispatches=supervision.redispatches,
                    state=supervision.state,
                )

    # -- supervision internals ------------------------------------------------
    def _effective_timeout(self, task: ShotTask) -> Optional[float]:
        if self.worker_timeout is not None:
            return self.worker_timeout
        if task.injector is not None and task.injector.plan.has_hang_faults:
            return self.AUTO_HANG_TIMEOUT
        return None

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        try:
            context = multiprocessing.get_context(self.start_method)
            return ProcessPoolExecutor(max_workers=workers, mp_context=context)
        except (OSError, ValueError, RuntimeError, ImportError) as error:
            raise PoolStartupError(
                f"could not start the {self.start_method!r} worker pool "
                f"({workers} worker(s)): {error}"
            ) from error

    def _make_chunk(
        self,
        task: ShotTask,
        index: int,
        item: Chunk,
        heartbeat: Optional[object],
        beat_interval: float,
    ) -> _WorkerChunk:
        return _WorkerChunk(
            index=index,
            start=item.start,
            stop=item.stop,
            plan_bytes=task.plan_bytes,
            entry=task.entry,
            backend_name=task.executor.backend_name,
            noise=task.executor.noise,
            step_limit=task.executor.step_limit,
            max_qubits=task.executor.max_qubits,
            allow_on_the_fly_qubits=task.executor.allow_on_the_fly_qubits,
            policy=task.policy,
            fault_plan=task.injector.plan if task.injector is not None else None,
            chain=task.chain.worker_chain(),
            keep_stats=task.keep_stats or task.timed,
            resilient=task.resilient,
            root=task.root,
            round_index=item.attempt,
            heartbeat=heartbeat,
            beat_interval=beat_interval,
            run_id=task.run_id,
            dispatch_clock=perf_counter(),
            fused_enabled=task.schedule is not None,
        )

    def _run_supervised(
        self,
        task: ShotTask,
        supervision: SupervisionRecord,
        obs,
        t0: float,
    ) -> List[ShotOutcome]:
        timeout = supervision.worker_timeout = self._effective_timeout(task)
        manager = None
        heartbeat = None
        beat_interval = 0.0
        if timeout is not None:
            try:
                manager = multiprocessing.get_context(self.start_method).Manager()
                heartbeat = manager.dict()
            except Exception as error:
                raise PoolStartupError(
                    f"could not start the heartbeat manager: {error}"
                ) from error
            beat_interval = min(0.25, timeout / 4.0)
        queue = ChunkQueue.for_shots(
            task.shots, self.jobs, self.chunk_shots, self.min_chunk_shots
        )
        reports: List[_WorkerReport] = []
        missing: List[int] = []
        next_index = 0
        pool: Optional[ProcessPoolExecutor] = None
        pool_broken = False
        try:
            while queue.pending:
                supervision.rounds += 1
                wave = queue.take_all()
                if pool is None or pool_broken:
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(min(self.jobs, len(wave)))
                    pool_broken = False
                dispatch = []
                for item in wave:
                    dispatch.append((
                        self._make_chunk(
                            task, next_index, item, heartbeat, beat_interval
                        ),
                        item,
                    ))
                    next_index += 1
                done_reports, lost, pool_broken = self._await_wave(
                    pool, dispatch, timeout, supervision, obs
                )
                reports.extend(done_reports)
                if any(r.error is not None for r in reports):
                    # Fail-fast mode hit a program/runtime error: stop
                    # supervising, let the merge raise it (re-dispatching
                    # lost chunks would only delay the inevitable).
                    break
                if not lost:
                    break
                supervision.failed_rounds += 1
                if supervision.failed_rounds >= self.max_worker_failures:
                    supervision.breaker_tripped = True
                    if obs.enabled:
                        obs.inc("scheduler.worker.breaker_trip")
                    missing = sorted(
                        s for item in lost for s in range(item.start, item.stop)
                    )
                    break
                supervision.redispatches += len(lost)
                if obs.enabled:
                    obs.inc("scheduler.worker.redispatch", len(lost))
                for item in lost:
                    queue.requeue(item)
        finally:
            if pool is not None:
                pool.shutdown(wait=not pool_broken, cancel_futures=True)
            if manager is not None:
                manager.shutdown()
        outcomes = self._merge(task, reports, obs, t0, queue)
        if missing:
            outcomes.extend(self._run_demoted(task, missing, supervision, obs))
        return outcomes

    def _await_wave(
        self,
        pool: ProcessPoolExecutor,
        dispatch: List[Tuple[_WorkerChunk, Chunk]],
        timeout: Optional[float],
        supervision: SupervisionRecord,
        obs,
    ) -> Tuple[List[_WorkerReport], List[Chunk], bool]:
        """Dispatch one queue wave and watch it; returns (reports, lost,
        broken).

        The whole wave is submitted at once -- the executor's idle
        processes pull chunks as they free up, which *is* the
        self-scheduling: a straggler holds one chunk while its peers
        drain the rest.  ``lost`` holds the queue chunks that produced no
        usable report (crash, hang, corrupt IPC) for re-enqueueing;
        ``broken`` means the pool must be recreated before the next wave.

        The heartbeat watchdog only judges chunks whose worker *started*
        (wrote its first beat): a chunk still waiting in the executor's
        queue is not hung.  A pool-wide stall backstop (no completion,
        start, or beat for ``timeout + STARTUP_GRACE``) catches the case
        where every process wedged before any chunk of the wave started.
        """
        round_index = supervision.rounds - 1
        try:
            futures = {
                pool.submit(_run_worker_chunk, wchunk): (wchunk, item)
                for wchunk, item in dispatch
            }
        except (OSError, RuntimeError, ValueError) as error:
            raise PoolStartupError(
                f"could not dispatch to the {self.start_method!r} worker "
                f"pool: {error}"
            ) from error
        progress = {wchunk.index: (-1, perf_counter()) for wchunk, _ in dispatch}
        hung: Set[int] = set()
        not_done = set(futures)
        last_progress = perf_counter()
        poll = None if timeout is None else max(0.01, min(0.1, timeout / 4.0))
        while not_done:
            done_now, not_done = wait(not_done, timeout=poll)
            if not not_done or timeout is None:
                continue
            now = perf_counter()
            if done_now:
                last_progress = now
            started_pending: List[int] = []
            for future in not_done:
                chunk = futures[future][0]
                try:
                    value = chunk.heartbeat[chunk.index]  # type: ignore[index]
                except Exception:
                    value = -1
                last_value, since = progress[chunk.index]
                if value != last_value:
                    progress[chunk.index] = (value, now)
                    last_progress = now
                    if value >= 0:
                        started_pending.append(chunk.index)
                    continue
                if value < 0:
                    # Not started: still in the executor's queue (or the
                    # pool is wedged pre-start -- the stall backstop
                    # below owns that case, not a per-chunk deadline).
                    continue
                started_pending.append(chunk.index)
                if now - since > timeout:
                    hung.add(chunk.index)
            # Leave once every started still-pending chunk is a detected
            # hang: healthy workers get to finish (and drain the queued
            # chunks they can reach) while the wedged ones wait for the
            # terminate below.
            if (
                hung
                and started_pending
                and all(i in hung for i in started_pending)
            ):
                break
            if now - last_progress > timeout + self.STARTUP_GRACE:
                hung.update(
                    started_pending
                    or [futures[f][0].index for f in not_done]
                )
                break
        if hung:
            self._terminate_workers(pool)
        reports: List[_WorkerReport] = []
        lost: List[Chunk] = []
        broken = bool(hung)
        for future, (chunk, item) in sorted(
            futures.items(), key=lambda entry: entry[1][0].index
        ):
            span = f"shots {chunk.start}..{chunk.stop - 1}"
            if not future.done():
                future.cancel()
                lost.append(item)
                if chunk.index not in hung:
                    # Never started: the chunk goes straight back to the
                    # queue without counting as a worker failure -- its
                    # worker did nothing wrong, the pool died around it.
                    supervision.note(
                        f"round {round_index}: chunk {chunk.index} ({span}) "
                        "returned to the queue undispatched"
                    )
                    continue
                supervision.hangs += 1
                supervision.last_error_code = WorkerTimeoutError.code
                supervision.note(
                    f"round {round_index}: worker {chunk.index} ({span}) "
                    f"missed its {timeout:g}s heartbeat deadline"
                )
                if obs.enabled:
                    obs.inc("scheduler.worker.hang")
                continue
            try:
                result = future.result(timeout=0)
            except BrokenProcessPool:
                broken = True
                supervision.crashes += 1
                supervision.last_error_code = WorkerCrashError.code
                supervision.note(
                    f"round {round_index}: worker {chunk.index} ({span}) "
                    "lost to a worker-process crash"
                )
                if obs.enabled:
                    obs.inc("scheduler.worker.crash")
                lost.append(item)
                continue
            # Any other exception is a worker *bug*, not lost infrastructure;
            # it propagates exactly as the unsupervised pool.map did.
            if isinstance(result, _WorkerReport):
                reports.append(result)
                continue
            supervision.ipc_corruptions += 1
            supervision.last_error_code = WorkerCrashError.code
            supervision.note(
                f"round {round_index}: worker {chunk.index} ({span}) "
                "returned an undecodable report (IPC corruption)"
            )
            if obs.enabled:
                obs.inc("scheduler.worker.ipc_corrupt")
            lost.append(item)
        return reports, lost, broken

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill every pool process (hung workers never exit on their own)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def _run_demoted(
        self,
        task: ShotTask,
        shots: List[int],
        supervision: SupervisionRecord,
        obs,
    ) -> List[ShotOutcome]:
        """The breaker tripped: finish the lost shots on the serial loop.

        The serial loop shares the parent's ChainGuard, so fallback
        semantics actually *improve* over per-worker clones.
        :class:`QirRuntimeError` from a shot propagates -- that is the
        program failing, same as serial fail-fast -- while an
        infrastructure error on the serial rung ends the ladder with
        :class:`SchedulerExhaustedError`.
        """
        code = supervision.last_error_code or WorkerCrashError.code
        task.chain.note_scheduler_demotion(
            f"scheduler:process -> scheduler:serial (after {code}: "
            f"{supervision.worker_failures} worker failure(s) in "
            f"{supervision.failed_rounds} round(s))"
        )
        supervision.demoted_to = "serial"
        supervision.note(
            f"breaker tripped after round {supervision.rounds - 1}: "
            f"re-running {len(shots)} shot(s) on the serial scheduler"
        )
        try:
            return [task.run_one(shot) for shot in shots]
        except QirRuntimeError:
            raise
        except Exception as error:
            raise SchedulerExhaustedError(
                f"process and serial schedulers both failed to complete "
                f"{len(shots)} re-dispatched shot(s): {error}"
            ) from error

    @staticmethod
    def _rebase_start(report: _WorkerReport, pool_start: float) -> float:
        """The worker span's start on the *parent's* clock.

        Workers time themselves on their own ``perf_counter``; folding
        their spans in at ``pool_start`` made every worker appear to
        start the instant the pool did.  The report carries the parent's
        dispatch clock plus the worker's start offset from it -- real
        dispatch latency under ``fork`` (shared CLOCK_MONOTONIC), clamped
        away when implausible (``spawn`` clocks share no origin: a
        negative offset, or one that would end the span in the future).
        """
        if report.dispatch_clock <= 0.0:
            return pool_start
        offset = report.start_offset
        if offset >= 0.0 and (
            report.dispatch_clock + offset + report.seconds <= perf_counter()
        ):
            return report.dispatch_clock + offset
        return report.dispatch_clock

    def _merge(
        self,
        task: ShotTask,
        reports: List[_WorkerReport],
        obs,
        pool_start: float,
        queue: Optional[ChunkQueue] = None,
    ) -> List[ShotOutcome]:
        """Fold worker reports into the parent's shared state.

        Chunk-*index* order (not completion order), so histories and
        metric folds are deterministic regardless of pool scheduling.
        Worker ids for span tags come from the reporting process's pid,
        assigned in first-appearance order over that same deterministic
        iteration -- many chunks, few workers, stable labels.
        """
        outcomes: List[ShotOutcome] = []
        first_error: Optional[QirRuntimeError] = None
        first_error_shot = -1
        worker_ids: Dict[int, int] = {}
        for report in sorted(reports, key=lambda r: r.index):
            outcomes.extend(report.outcomes)
            task.chain.absorb_worker(report.degraded, report.history)
            if task.injector is not None and report.faults_raised:
                task.injector.note_fault_raised(report.faults_raised)
            if report.error is not None and (
                first_error is None or report.error_shot < first_error_shot
            ):
                first_error = report.error
                first_error_shot = report.error_shot
            if obs.enabled:
                worker = worker_ids.setdefault(report.pid, len(worker_ids))
                obs.inc("runtime.scheduler.process_chunks")
                obs.tracer.complete(
                    "process.worker",
                    start=self._rebase_start(report, pool_start),
                    seconds=report.seconds,
                    tid=worker + 1,
                    worker=worker,
                    shots=len(report.outcomes),
                    chunk=f"{report.start}..{max(report.start, report.stop - 1)}",
                    round=report.round_index,
                    steal=report.seq > 0,
                )
        if obs.enabled and queue is not None:
            obs.inc("scheduler.queue.chunks", queue.stats.dispatched)
            steals = sum(1 for r in reports if r.seq > 0)
            if steals:
                obs.inc("scheduler.queue.steal", steals)
            if queue.stats.refills:
                obs.inc("scheduler.queue.refill", queue.stats.refills)
        if first_error is not None:
            # Each chunk stops at its own first failure, so the minimum
            # failing shot across chunks is the globally first one -- the
            # exact error the serial loop would have raised.
            raise first_error
        return outcomes


class BatchedScheduler:
    """One vectorised evolution of all shots at once (chunked for memory).

    Applies when the per-shot loop would otherwise dominate: statevector
    backend, no noise, no per-shot resilience, no per-shot stats.  The
    moment the program does something one shared instruction stream
    cannot express per member -- classical feedback on an outcome,
    dynamic `m`-style results -- the attempt aborts with
    :class:`BatchedUnsupported` and the task falls back to the per-shot
    path, so batched execution is sound by construction (the same
    optimistic-abort design as the sampling fast path).  The abort reason
    is memoized on the task's plan, so later runs of that plan skip the
    doomed partial batch and go straight to the per-shot loop.
    """

    name = "batched"
    jobs = 1
    #: ``reason`` reported when the batch runs (see :class:`AutoScheduler`).
    chosen_reason: Optional[str] = None

    def __init__(self) -> None:
        #: What actually ran: stays "batched" on success, flips to
        #: "serial" when the task was ineligible or the batch aborted.
        self.effective = "batched"
        #: Why the per-shot phase ran as it did (the ``scheduler.reason``
        #: span tag); ``None`` when a requested batch simply ran.
        self.reason: Optional[str] = None

    def run(self, task: ShotTask) -> List[ShotOutcome]:
        obs = task.executor.observer
        reason = self._ineligible_reason(task)
        # Static declines count as fallbacks only when batching was asked
        # for; auto's choices land in runtime.scheduler.auto instead.
        counted = reason is not None and self.name == "batched"
        if reason is None and task.plan is not None:
            reason = task.plan.batched_decline  # no re-attempt, no count
        if reason is None:
            try:
                outcomes = run_batched(task)
                self.reason = self.chosen_reason
                return outcomes
            except BatchedUnsupported as abort:
                reason = str(abort)
                counted = True
                if task.plan is not None:
                    task.plan.note_batched_decline(reason)
        if counted and obs.enabled:
            obs.inc("runtime.scheduler.batched_fallback", reason=reason)
        self.reason = reason
        self.effective = "serial"
        return SerialScheduler().run(task)

    def _ineligible_reason(self, task: ShotTask) -> Optional[str]:
        executor = task.executor
        if executor.backend_name != "statevector":
            return "non-statevector backend"
        if executor.noise is not None and not executor.noise.is_trivial:
            return "noise model"
        if task.resilient:
            return "per-shot resilience"
        if task.keep_stats:
            return "keep_stats"
        return None


class AutoScheduler(BatchedScheduler):
    """The default scheduler: batch narrow plans, run wide ones serially.

    The runtime tries the warm-distribution and sampling tiers first, as
    for every scheduler but ``batched``; this class only decides the
    per-shot phase.  A plan whose ``required_qubits`` is known and at
    most :data:`AUTO_BATCHED_MAX_QUBITS` goes through the batched path
    (with its eligibility checks and abort-to-serial fallback); anything
    else runs the serial loop.  ``effective`` reports what ran and
    ``reason`` why.  Never spawns workers.
    """

    name = "auto"
    chosen_reason = f"width<={AUTO_BATCHED_MAX_QUBITS}"

    def _ineligible_reason(self, task: ShotTask) -> Optional[str]:
        reason = super()._ineligible_reason(task)
        if reason is not None:
            return reason
        if task.required_qubits is None:
            return "unknown width"
        if task.required_qubits > AUTO_BATCHED_MAX_QUBITS:
            return f"width>{AUTO_BATCHED_MAX_QUBITS}"
        return None


def get_scheduler(
    name: str,
    jobs: int = 1,
    worker_timeout: Optional[float] = None,
    max_worker_failures: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    min_chunk_shots: Optional[int] = None,
):
    """Resolve a scheduler by name (the ``--scheduler`` CLI contract).

    ``worker_timeout`` and ``max_worker_failures`` configure the process
    scheduler's supervisor and are rejected for every other scheduler
    (there are no worker processes to supervise).  ``jobs > 1`` and
    ``chunk_shots`` / ``min_chunk_shots`` (the work queue's chunk sizing)
    likewise require the process scheduler: the others run in-process,
    one shot stream, no queue.
    """
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {', '.join(SCHEDULERS)}"
        )
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if name != "process" and (
        worker_timeout is not None or max_worker_failures is not None
    ):
        raise ValueError(
            "worker supervision options (worker_timeout / "
            "max_worker_failures) require the process scheduler"
        )
    if name != "process" and (
        chunk_shots is not None or min_chunk_shots is not None
    ):
        raise ValueError(
            "chunk sizing options (chunk_shots / min_chunk_shots) require "
            "the process scheduler"
        )
    if name != "process" and jobs > 1:
        raise ValueError(
            "jobs > 1 requires the process scheduler (serial and batched "
            "run one shot stream; auto never spawns workers)"
        )
    if name == "serial":
        return SerialScheduler()
    if name == "auto":
        return AutoScheduler()
    if name == "process":
        return ProcessScheduler(
            jobs=max(2, jobs),
            worker_timeout=worker_timeout,
            max_worker_failures=(
                2 if max_worker_failures is None else max_worker_failures
            ),
            chunk_shots=chunk_shots,
            min_chunk_shots=min_chunk_shots,
        )
    return BatchedScheduler()


# -- batched execution --------------------------------------------------------


class BatchedUnsupported(Exception):
    """Raised mid-execution when the program cannot run as one batch.

    The message is a short reason label (``feedback``, ``dynamic
    results``): it becomes the ``batched_fallback`` counter label, the
    ``scheduler.reason`` span tag and the plan's batched-decline memo.
    """


class BatchedResultStore(ResultStore):
    """Result store for batched runs: static results hold per-member
    outcome *vectors*; reading one back (classical feedback) aborts the
    batch, while the output-recording epilogue (``read_default``) is
    tolerated -- mirroring the sampling fast path's DeferredResultStore."""

    def new_dynamic(self, value):  # noqa: D102 - see class docstring
        raise BatchedUnsupported("dynamic results")

    def write(self, pointer: object, value) -> None:
        if not isinstance(pointer, IntPtr):
            raise BatchedUnsupported("dynamic results")
        super().write(pointer, value)

    def read(self, pointer: object):
        value = super().read(pointer)
        if isinstance(value, np.ndarray):
            raise BatchedUnsupported("feedback")
        return value

    def read_default(self, pointer: object, default: int = 0) -> int:
        # Output recording only; per-member values are reconstructed by
        # the batch runner from the stored vectors.
        return default

    def member_bitstring(self, member: int) -> str:
        """Member's bitstring, highest result index leftmost (the shared
        rendering convention of the per-shot path and the fast path)."""
        if self.max_static_index < 0:
            return ""
        bits = []
        for address in range(self.max_static_index, -1, -1):
            value = self._static.get(address, 0)
            if isinstance(value, np.ndarray):
                bits.append(str(int(value[member])))
            else:
                bits.append(str(int(value)))
        return "".join(bits)


def batch_chunk_size(shots: int, required_qubits: Optional[int]) -> int:
    """How many members one batched evolution should carry.

    Bounded by an overall amplitude budget (so wide registers get small
    chunks) and a hard cap; unknown widths use a conservative guess.
    """
    width = required_qubits if required_qubits is not None else 12
    chunk = max(1, _BATCH_AMPLITUDE_BUDGET >> max(0, width))
    return max(1, min(shots, chunk, _BATCH_CHUNK_CAP))


def run_batched(task: ShotTask) -> List[ShotOutcome]:
    """Evolve all shots as chunked batches; one interpreter run per chunk.

    Member ``i`` of the batch draws from the same spawned seed the serial
    scheduler would hand shot ``i``'s backend, so counts are identical.
    An interpreted run opens with a chunk of at most
    ``_BATCH_PROBE_MEMBERS`` members (see there).
    """
    executor = task.executor
    obs = executor.observer
    chunk_size = batch_chunk_size(task.shots, task.required_qubits)
    outcomes: List[ShotOutcome] = []
    start = 0
    while start < task.shots:
        size = min(chunk_size, task.shots - start)
        if start == 0 and task.schedule is None:
            size = min(size, _BATCH_PROBE_MEMBERS)
        seeds = [
            shot_sequence(task.root, start + member, 0) for member in range(size)
        ]
        backend = BatchedStatevectorSimulator(
            size, seeds=seeds, max_qubits=executor.max_qubits
        )
        if task.schedule is not None:
            # Fused batched path: the kernel schedule replaces the whole
            # interpreter walk, one pre-multiplied pass per kernel over
            # the (batch, 2**n) array.  Per-member RNGs draw in the same
            # member order as the interpreter's batched measure, so
            # counts stay bit-identical.
            strings = run_fused_batched(task.schedule, backend)
            if obs.enabled:
                obs.inc("runtime.scheduler.batched_chunks")
            for member in range(size):
                outcomes.append(
                    ShotOutcome(
                        shot=start + member,
                        bitstring=strings[member],
                        backend_label=executor.backend_name,
                    )
                )
            start += size
            continue
        results = BatchedResultStore()
        interp = Interpreter(
            task.module,
            backend,  # type: ignore[arg-type]
            step_limit=executor.step_limit,
            allow_on_the_fly_qubits=executor.allow_on_the_fly_qubits,
            observer=executor.observer,
            results=results,
        )
        interp.run(task.entry)
        if obs.enabled:
            obs.inc("runtime.scheduler.batched_chunks")
            fold_intrinsic_stats(obs, interp.stats)
        for member in range(size):
            outcomes.append(
                ShotOutcome(
                    shot=start + member,
                    bitstring=results.member_bitstring(member),
                    backend_label=executor.backend_name,
                )
            )
        start += size
    return outcomes


# -- merging ------------------------------------------------------------------


def fold_intrinsic_stats(obs, stats: InterpreterStats) -> None:
    """Roll per-intrinsic profile counters into the observer's metrics."""
    for name, n in stats.intrinsic_calls.items():
        obs.inc("runtime.intrinsic_calls", n, intrinsic=name)
    for name, s in stats.intrinsic_seconds.items():
        obs.inc("runtime.intrinsic_seconds", s, intrinsic=name)


def build_shots_result(
    task: ShotTask, outcomes: List[ShotOutcome], scheduler_name: str
) -> ShotsResult:
    """Deterministic order-independent merge of per-shot outcomes.

    All observer metric writes happen here, in the parent process, so
    workers never touch shared metric state.
    """
    outcomes = sorted(outcomes, key=lambda o: o.shot)
    obs = task.executor.observer
    profiled = obs.enabled

    counts: Dict[str, int] = {}
    all_stats: List[InterpreterStats] = []
    per_backend_stats: Dict[str, InterpreterStats] = {}
    failures: List[ShotFailure] = []
    per_error: Dict[str, int] = {}
    backend_counts: Dict[str, int] = {}
    retried = 0

    for outcome in outcomes:
        if profiled:
            if outcome.seconds is not None:
                obs.observe("runtime.shot_seconds", outcome.seconds)
            if outcome.stats is not None:
                fold_intrinsic_stats(obs, outcome.stats)
            if outcome.attempts > 1:
                obs.inc("resilience.retry_attempts", outcome.attempts - 1)
        if outcome.failure is not None:
            failures.append(outcome.failure)
            code = outcome.failure.code
            per_error[code] = per_error.get(code, 0) + 1
            if profiled:
                obs.inc("resilience.shot_failures", code=code)
            continue
        assert outcome.bitstring is not None
        counts[outcome.bitstring] = counts.get(outcome.bitstring, 0) + 1
        if outcome.attempts > 1:
            retried += 1
            if profiled:
                obs.inc("resilience.retried_shots")
        if task.resilient:
            label = outcome.backend_label
            backend_counts[label] = backend_counts.get(label, 0) + 1
            if task.keep_stats and outcome.stats is not None:
                bucket = per_backend_stats.get(label)
                if bucket is None:
                    bucket = per_backend_stats[label] = InterpreterStats()
                bucket.merge(outcome.stats)
        if task.keep_stats and outcome.stats is not None:
            all_stats.append(outcome.stats)

    if profiled:
        demotions = task.chain.demotions_this_run
        if demotions:
            obs.inc("resilience.demotions", demotions)
        if task.injector is not None:
            obs.inc(
                "resilience.faults_injected", task.injector.stats.faults_raised
            )

    if not task.resilient:
        return ShotsResult(
            counts=sorted_counts(counts),
            shots=task.shots,
            per_shot_stats=all_stats,
            scheduler=scheduler_name,
        )
    return ShotsResult(
        counts=sorted_counts(counts),
        shots=task.shots,
        per_shot_stats=all_stats,
        per_backend_stats=dict(sorted(per_backend_stats.items())),
        failed_shots=failures,
        per_error_counts=dict(sorted(per_error.items())),
        degraded=task.chain.degraded,
        backend_shot_counts=dict(sorted(backend_counts.items())),
        fallback_history=task.chain.history,
        retried_shots=retried,
        scheduler=scheduler_name,
    )
