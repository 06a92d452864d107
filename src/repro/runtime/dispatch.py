"""Work-queue dispatch core of the process scheduler.

The one-contiguous-range-per-worker model had a built-in straggler
problem: a worker that runs slow (noisy neighbour, costly shots, a
restarted pool) caps the whole run, and `qir-trace workers` showed it as
an imbalance ratio drifting above 1.  This module replaces that model
with *self-scheduling*: :func:`guided_chunks` splits the shot range into
many small chunks (large first, shrinking toward a floor -- classic
guided scheduling), a :class:`ChunkQueue` hands them out, and idle
workers keep pulling until the queue drains.  A fast worker simply runs
more chunks; a slow one runs fewer; nobody waits on a pre-assigned
range.

Determinism is untouched by any of this: per-shot seeds are pure
functions of ``(root, shot, attempt)`` (see
:func:`repro.runtime.schedulers.shot_sequence`), and the merge re-sorts
outcomes by shot index -- so *which* worker runs a chunk, and in what
order, cannot change ``counts``.

Supervision rides on queue state: a chunk lost to a worker crash, hang,
or IPC corruption is simply :meth:`~ChunkQueue.requeue`-d with its
dispatch ``attempt`` bumped.  Process-level fault rules gate on that
per-chunk attempt (see :meth:`FaultPlan.process_decision`), so a
transient fault spends itself per chunk, not per global round.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, List, Optional, Tuple

#: Guided scheduling divides the *remaining* shots by this multiple of
#: the worker count on every split: the first chunks are big (low queue
#: overhead while everyone is busy anyway) and the tail chunks are small
#: (fine-grained rebalancing exactly when stragglers matter).
GUIDED_FACTOR = 2


def guided_chunks(
    shots: int,
    workers: int,
    chunk_shots: Optional[int] = None,
    min_chunk_shots: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Split ``range(shots)`` into self-scheduled chunk ranges.

    With ``chunk_shots`` set, every chunk is exactly that size (except a
    short final remainder) -- predictable, and the knob that reproduces
    the contiguous baseline (``chunk_shots=ceil(shots/workers)``).
    Otherwise *guided* sizing applies: each chunk takes
    ``ceil(remaining / (GUIDED_FACTOR * workers))`` shots, clamped below
    by ``min_chunk_shots`` (default 1), so sizes shrink geometrically
    toward the floor.  Chunks are contiguous, in shot order, and cover
    every index exactly once.
    """
    if shots < 1:
        return []
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_shots is not None and chunk_shots < 1:
        raise ValueError("chunk_shots must be >= 1")
    if min_chunk_shots is not None and min_chunk_shots < 1:
        raise ValueError("min_chunk_shots must be >= 1")
    floor = min_chunk_shots if min_chunk_shots is not None else 1
    ranges: List[Tuple[int, int]] = []
    start = 0
    while start < shots:
        remaining = shots - start
        if chunk_shots is not None:
            size = chunk_shots
        else:
            size = max(floor, -(-remaining // (GUIDED_FACTOR * workers)))
        size = min(size, remaining)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class Chunk:
    """One self-scheduled unit of work: a contiguous shot range.

    ``attempt`` counts dispatches of *this* chunk (0 on first dispatch,
    +1 per :meth:`ChunkQueue.requeue` after a loss); it gates transient
    process-level fault rules and lands on the merged span's ``round``
    tag, so re-dispatches stay visible in traces.
    """

    id: int
    start: int
    stop: int
    attempt: int = 0

    @property
    def shots(self) -> int:
        return self.stop - self.start

    @property
    def label(self) -> str:
        return f"{self.start}..{max(self.start, self.stop - 1)}"


@dataclass
class QueueStats:
    """What the queue did, for the ``scheduler.queue.*`` counters."""

    #: Distinct chunks the shot range was split into.
    chunks: int = 0
    #: Chunk dispatches (pops), including re-dispatches of requeued chunks.
    dispatched: int = 0
    #: Lost chunks returned to the queue (one per requeue).
    refills: int = 0


class ChunkQueue:
    """A thread-safe queue of shot chunks that idle workers pull dry.

    The dispatch core of :class:`ProcessScheduler`: the supervisor
    drains the queue into pool waves via :meth:`take_all` and returns
    lost chunks with :meth:`requeue`.  Completeness invariant: every
    shot of the original range is in exactly one live chunk until that
    chunk's outcomes are merged -- requeueing replaces a lost chunk with
    the *same* range at the next attempt, so nothing is lost or
    duplicated no matter how many times workers die.
    """

    def __init__(self, chunks: List[Chunk]):
        self._lock = threading.Lock()
        self._pending: Deque[Chunk] = deque(chunks)
        self.stats = QueueStats(chunks=len(chunks))

    @classmethod
    def for_shots(
        cls,
        shots: int,
        workers: int,
        chunk_shots: Optional[int] = None,
        min_chunk_shots: Optional[int] = None,
    ) -> "ChunkQueue":
        ranges = guided_chunks(shots, workers, chunk_shots, min_chunk_shots)
        return cls(
            [Chunk(id=i, start=a, stop=b) for i, (a, b) in enumerate(ranges)]
        )

    def pop(self) -> Optional[Chunk]:
        """Next chunk to run, or ``None`` when the queue is drained."""
        with self._lock:
            if not self._pending:
                return None
            self.stats.dispatched += 1
            return self._pending.popleft()

    def take_all(self) -> List[Chunk]:
        """Drain every pending chunk at once (one dispatch wave)."""
        with self._lock:
            chunks = list(self._pending)
            self._pending.clear()
            self.stats.dispatched += len(chunks)
            return chunks

    def requeue(self, chunk: Chunk) -> Chunk:
        """Return a lost chunk to the queue at the next dispatch attempt.

        The range is identical -- per-shot seeds are pure functions of
        shot index, so the re-run reproduces bit-identical outcomes --
        only ``attempt`` moves, which is what lets transient fault rules
        expire per chunk.
        """
        bumped = replace(chunk, attempt=chunk.attempt + 1)
        with self._lock:
            self._pending.append(bumped)
            self.stats.refills += 1
        return bumped

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def pending_shots(self) -> int:
        with self._lock:
            return sum(c.shots for c in self._pending)

    def __len__(self) -> int:
        return self.pending
