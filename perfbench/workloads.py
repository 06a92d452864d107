"""Workload definitions for the end-to-end request benchmark.

Every input is generated here from the benchmark's ``--seed``; the
program under test only ever sees the generated QIR text.  A request is
one user-visible unit of work: a ``qir-run`` process (``cli_cold``) or
one ``QirSession.run_shots`` call (``compile_stream``, ``shot_stream``).

Each workload is a *closed loop with one client*: the next request is
sent only after the previous one has returned, from a single client in
one process, with no parallel children.  Throughput therefore equals
the inverse of mean latency, and a slower program receives less load.

The rationale table (:data:`WORKLOADS`) records, per workload, why it is
in the set, its loop type and client count, and the input properties
that steer the program's caches: how much the requests share and how
large the working set is next to the session's 32-entry plan LRU.
:data:`LAYER_MAP` records which end-to-end metric each per-layer metric
should move, on which workload, so a later change can name its claim
as "metric X on workload Y".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    clients: int
    sharing: str
    working_set: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cli_cold",
            why=(
                "The lli-analogue user path (paper Sec. III-C): one fresh "
                "`qir-run FILE --shots 500 --seed S --plan-cache DIR` process "
                "per request.  Startup imports are most of each request, and "
                "it is the only workload where process start and the disk "
                "plan-cache tier sit on the critical path."
            ),
            loop="closed",
            clients=1,
            sharing=(
                "requests drawn with replacement from a seeded pool of 8 "
                "paper-scale programs (bell, ghz12, qft8, rotation_ladder, "
                "teleportation, repetition code d3, counted_loop under "
                "--opt unroll, random 8x40); repeats warm-start from the "
                "run's disk plan cache and fast-path programs are then "
                "served from the stored distribution"
            ),
            working_set=(
                "8 programs, far below the 32-entry LRU, but every request "
                "is a new process, so the in-memory caches are always cold"
            ),
        ),
        Workload(
            name="compile_stream",
            why=(
                "The host-loop (VQE-style) user: one long-lived QirSession "
                "fed a freshly generated program per request at 256 shots.  "
                "Request time is lex, parse, verify, passes and plan "
                "analysis/specialization, with a minor sampling fast path; "
                "startup and the per-shot interpreter are absent."
            ),
            loop="closed",
            clients=1,
            sharing=(
                "no sharing: seeded random_qir (width 6-12, depth 20-80 in "
                "four size classes, a seeded 30% clifford_only share) and "
                "counted_loop_qir programs, each under none / o1 / unroll, "
                "served in seeded shuffled cycles of every (class, pipeline)"
            ),
            working_set=(
                "unbounded: every random program is new and the counted "
                "loops span 198 (program, pipeline) keys, far above the "
                "32-entry LRU, so nearly every request misses the plan cache"
            ),
        ),
        Workload(
            name="shot_stream",
            why=(
                "The shot-heavy user of adaptive programs: one long-lived "
                "QirSession serving a pool of 7 programs the sampling fast "
                "path rejects, a few hundred shots each, on the default "
                "scheduler.  After each program's first request every "
                "request is a plan-cache hit, so the per-shot interpreter "
                "and statevector kernels (diagonal 2-qubit gates included) "
                "do nearly all the work."
            ),
            loop="closed",
            clients=1,
            sharing=(
                "full sharing: 4 seeded reset-round circuits, reset_chain_qir, "
                "repetition_code_qir(5, rounds=3) and teleportation_qir, "
                "served in seeded shuffled cycles"
            ),
            working_set="7 programs, inside the 32-entry LRU: all warm after cycle one",
        ),
    )
}

#: per-layer metric -> (end-to-end metric it should move, workload).
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "startup.interpreter_s": ("latency_p50_s", "cli_cold"),
    "startup.import_s": ("latency_p50_s", "cli_cold"),
    "process.exit_s": ("latency_p50_s", "cli_cold"),
    "llvmir.lex_s": ("requests_per_s", "compile_stream"),
    "llvmir.parse_s": ("requests_per_s", "compile_stream"),
    "llvmir.verify_s": ("requests_per_s", "compile_stream"),
    "passes.o1_s": ("requests_per_s", "compile_stream"),
    "passes.unroll_s": ("requests_per_s", "compile_stream"),
    "runtime.session_s": ("requests_per_s", "compile_stream"),
    "runtime.plan_s": ("latency_p90_s", "compile_stream"),
    "sim.fusion.specialize_s": ("latency_p90_s", "compile_stream"),
    "runtime.plancache.get_s": ("latency_p50_s", "cli_cold"),
    "runtime.plancache.put_s": ("latency_p50_s", "cli_cold"),
    "runtime.plan.encode_s": ("latency_p50_s", "cli_cold"),
    "runtime.plan.decode_s": ("latency_p50_s", "cli_cold"),
    "runtime.execute.fastpath_s": ("requests_per_s", "compile_stream"),
    "runtime.execute.dist_served_s": ("latency_p50_s", "cli_cold"),
    "runtime.execute.per_shot_s": ("shots_per_s", "shot_stream"),
    "runtime.execute.batched_s": ("shots_per_s", "shot_stream"),
    "sim.kernel_s": ("shots_per_s", "shot_stream"),
    "runtime.interpreter_s": ("shots_per_s", "shot_stream"),
}

# -- requests -------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One generated request.  ``ref`` describes the reference output
    (see :mod:`perfbench.reference`); it never names ``repro.runtime``."""

    program: str
    text: str
    pipeline: Optional[str]
    shots: int
    seed: int
    ref: Tuple


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(workload))
    return np.random.default_rng([seed, tag])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


# -- cli_cold ---------------------------------------------------------------------

CLI_SHOTS = 500


def cli_pool(seed: int) -> List[Request]:
    """The seeded pool of 8 paper-scale programs ``cli_cold`` draws from."""
    from repro.workloads import (
        bell_qir,
        counted_loop_qir,
        ghz_qir,
        qft_qir,
        random_qir,
        repetition_code_qir,
        rotation_ladder_qir,
        teleportation_qir,
    )

    rng = _rng(seed, "cli_pool")
    ladder_width = 3
    ladder_angle = float(rng.uniform(0.1, 1.0))
    tele_angle = float(rng.uniform(0.2, 2.5))
    rep_error = int(rng.integers(-1, 3))
    rep_one = bool(rng.integers(0, 2))
    loop_width = 6
    loop_gate = str(rng.choice(["h", "x"]))
    random_seed = _draw_seed(rng)
    rep_error_arg = None if rep_error < 0 else rep_error
    specs = [
        ("bell", bell_qir(), None, ("circuit",)),
        ("ghz12", ghz_qir(12), None, ("circuit",)),
        ("qft8", qft_qir(8), None, ("circuit",)),
        (
            "rotation_ladder",
            rotation_ladder_qir(ladder_width, 32, ladder_angle),
            None,
            ("circuit",),
        ),
        ("teleportation", teleportation_qir(tele_angle), None, ("teleport",)),
        (
            "repetition_d3",
            repetition_code_qir(3, inject_error=rep_error_arg, logical_one=rep_one),
            None,
            ("repetition", 3, 1, rep_error_arg, rep_one),
        ),
        (
            "counted_loop",
            counted_loop_qir(loop_width, gate=loop_gate),
            "unroll",
            ("counted_loop", loop_width, loop_gate),
        ),
        ("random_8x40", random_qir(8, 40, seed=random_seed), None, ("circuit",)),
    ]
    return [
        Request(name, text, pipeline, CLI_SHOTS, 0, ref)
        for name, text, pipeline, ref in specs
    ]


def cli_stream(seed: int) -> Iterator[Request]:
    """Requests drawn with replacement from :func:`cli_pool`."""
    pool = cli_pool(seed)
    rng = _rng(seed, "cli_cold")
    while True:
        base = pool[int(rng.integers(0, len(pool)))]
        yield Request(
            base.program, base.text, base.pipeline, base.shots, _draw_seed(rng), base.ref
        )


# -- compile_stream ---------------------------------------------------------------

COMPILE_SHOTS = 256
COMPILE_PIPELINES = (None, "o1", "unroll")
#: (width range, depth range) of the random-program size classes; every
#: cycle serves each class, and the counted loops, once per pipeline, so
#: the request mix -- and with it the expected request cost -- is the
#: same for every seed.  With five program classes the median request
#: falls inside the middle class rather than in the gap between two.
COMPILE_CLASSES = (
    ((6, 7), (20, 35)),
    ((7, 9), (35, 50)),
    ((9, 11), (50, 65)),
    ((11, 12), (65, 80)),
)
LOOP_GATES = ("h", "x", "y", "s", "t", "z")


def compile_stream(seed: int) -> Iterator[Request]:
    """Freshly generated programs, one per request.

    A cycle is every (program class, pipeline) pair in a seeded order:
    four random_qir size classes (a seeded 30% of them clifford_only)
    plus counted_loop_qir, each under none / o1 / unroll.  Sizes, gates
    and seeds within a class are drawn per request.
    """
    from repro.workloads import counted_loop_qir, random_qir

    rng = _rng(seed, "compile_stream")
    cells = [
        (cls, pipeline)
        for cls in range(len(COMPILE_CLASSES) + 1)
        for pipeline in COMPILE_PIPELINES
    ]
    while True:
        for cell in rng.permutation(len(cells)):
            cls, pipeline = cells[int(cell)]
            if cls < len(COMPILE_CLASSES):
                (w_lo, w_hi), (d_lo, d_hi) = COMPILE_CLASSES[cls]
                width = int(rng.integers(w_lo, w_hi + 1))
                depth = int(rng.integers(d_lo, d_hi + 1))
                clifford = bool(rng.random() < 0.3)
                text = random_qir(
                    width, depth, seed=_draw_seed(rng), clifford_only=clifford
                )
                program = f"random_{width}x{depth}" + ("_clifford" if clifford else "")
                ref: Tuple = ("circuit",)
            else:
                width = int(rng.integers(2, 13))
                gate = LOOP_GATES[int(rng.integers(0, len(LOOP_GATES)))]
                text = counted_loop_qir(width, gate=gate)
                program = f"counted_loop_{gate}{width}"
                ref = ("counted_loop", width, gate)
            yield Request(program, text, pipeline, COMPILE_SHOTS, 0, ref)


# -- shot_stream ------------------------------------------------------------------

SHOT_SHOTS = 200


#: (width, rounds, layers per round) of the pool's reset-round circuits.
#: Shapes are fixed so a pool costs about the same for every seed; the
#: seed chooses gates, angles and pairings.  The pool holds 7 programs:
#: with an odd count served in cycles, the median request is one
#: program's, not the gap between two.
RESET_ROUND_SHAPES = ((4, 3, 2), (5, 3, 2), (6, 3, 2), (6, 3, 3))


def reset_round_layers(
    rng: np.random.Generator, width: int, n_rounds: int, n_layers: int
) -> List[List[List[tuple]]]:
    """Seeded reset-round circuit: ``n_rounds`` x ``n_layers`` of gates.

    Each layer is an ``ry``/``rz`` on every qubit followed by ``cz`` or
    ``cnot`` on a seeded set of disjoint pairs.  Each round is a list of
    layers of ``(gate, qubits, params)`` tuples.
    """
    rounds = []
    for _ in range(n_rounds):
        layers = []
        for _ in range(n_layers):
            layer: List[tuple] = []
            for q in range(width):
                gate = "ry" if rng.random() < 0.6 else "rz"
                layer.append((gate, (q,), (float(rng.uniform(0.1, math.pi - 0.1)),)))
            order = [int(q) for q in rng.permutation(width)]
            for a, b in zip(order[::2], order[1::2]):
                gate = "cz" if rng.random() < 0.5 else "cnot"
                layer.append((gate, (a, b), ()))
            layers.append(layer)
        rounds.append(layers)
    return rounds


def reset_round_qir(width: int, rounds: List[List[List[tuple]]]) -> str:
    """Emit a reset-round circuit through the QIR builder: each round's
    layers, then measure every qubit into its slot, then (except after
    the last round) reset every qubit."""
    from repro.qir.builder import SimpleModule
    from repro.qir.profiles import AdaptiveProfile

    sm = SimpleModule(
        "reset_rounds", width, width, addressing="static", profile=AdaptiveProfile
    )
    qis = sm.qis
    for index, layers in enumerate(rounds):
        for layer in layers:
            for gate, qubits, params in layer:
                qis.gate(gate, list(qubits), list(params))
        for q in range(width):
            qis.mz(q, q)
        if index < len(rounds) - 1:
            for q in range(width):
                qis.reset(q)
    sm.record_output()
    return sm.ir()


def shot_pool(seed: int) -> List[Request]:
    """The seeded pool of 7 fast-path-rejected adaptive programs."""
    from repro.workloads import repetition_code_qir, teleportation_qir
    from repro.workloads.qir_programs import reset_chain_qir

    rng = _rng(seed, "shot_pool")
    pool: List[Request] = []
    for i, (width, n_rounds, n_layers) in enumerate(RESET_ROUND_SHAPES):
        rounds = reset_round_layers(rng, width, n_rounds, n_layers)
        pool.append(
            Request(
                f"reset_rounds_{i}",
                reset_round_qir(width, rounds),
                None,
                SHOT_SHOTS,
                0,
                ("final_round", width, tuple(tuple(layer) for layer in rounds[-1])),
            )
        )
    chain_width, chain_rounds = 3, 4
    chain_angle = float(rng.uniform(0.2, 1.2))
    pool.append(
        Request(
            "reset_chain",
            reset_chain_qir(chain_width, chain_rounds, chain_angle),
            None,
            SHOT_SHOTS,
            0,
            ("reset_chain", chain_width, chain_rounds, chain_angle),
        )
    )
    rep_error = int(rng.integers(-1, 5))
    rep_error_arg = None if rep_error < 0 else rep_error
    rep_one = bool(rng.integers(0, 2))
    pool.append(
        Request(
            "repetition_d5_r3",
            repetition_code_qir(
                5, inject_error=rep_error_arg, logical_one=rep_one, rounds=3
            ),
            None,
            SHOT_SHOTS,
            0,
            ("repetition", 5, 3, rep_error_arg, rep_one),
        )
    )
    pool.append(
        Request(
            "teleportation",
            teleportation_qir(float(rng.uniform(0.2, 2.5))),
            None,
            SHOT_SHOTS,
            0,
            ("teleport",),
        )
    )
    return pool


def shot_stream(seed: int) -> Iterator[Request]:
    """The pool served in seeded shuffled cycles (each program once per cycle)."""
    pool = shot_pool(seed)
    rng = _rng(seed, "shot_stream")
    while True:
        for index in rng.permutation(len(pool)):
            yield pool[int(index)]


STREAMS = {
    "cli_cold": cli_stream,
    "compile_stream": compile_stream,
    "shot_stream": shot_stream,
}
