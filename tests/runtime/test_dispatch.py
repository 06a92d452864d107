"""The shared dispatch core: chunk sizing, queue invariants, determinism.

Three layers of property tests:

* pure queue/sizing properties (fast, many examples): guided chunks
  cover every shot exactly once, shrink monotonically toward the floor,
  and survive arbitrary loss/requeue interleavings without losing or
  duplicating a shot;
* process-vs-serial histograms across seeds, jobs, and chunk sizing
  (real worker processes, few examples);
* process-scheduler runs under injected worker crash/hang faults stay
  bit-identical to serial (expensive: few examples, no deadline).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import FaultPlan
from repro.runtime import QirRuntime, get_scheduler, guided_chunks
from repro.runtime.dispatch import ChunkQueue
from repro.workloads.qir_programs import bell_qir, reset_chain_qir


class TestGuidedChunks:
    @given(
        shots=st.integers(min_value=0, max_value=5000),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_guided_covers_every_shot_exactly_once(self, shots, workers):
        chunks = guided_chunks(shots, workers)
        covered = [s for start, stop in chunks for s in range(start, stop)]
        assert covered == list(range(shots))

    @given(
        shots=st.integers(min_value=1, max_value=5000),
        workers=st.integers(min_value=1, max_value=16),
        floor=st.integers(min_value=1, max_value=64),
    )
    def test_guided_sizes_shrink_monotonically_to_the_floor(
        self, shots, workers, floor
    ):
        chunks = guided_chunks(shots, workers, min_chunk_shots=floor)
        sizes = [stop - start for start, stop in chunks]
        assert all(size >= 1 for size in sizes)
        # Guided sizing: early chunks large, the tail never grows, and
        # nothing but the final remainder dips below the floor.
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert all(size >= floor for size in sizes[:-1])

    @given(
        shots=st.integers(min_value=1, max_value=5000),
        workers=st.integers(min_value=1, max_value=16),
        fixed=st.integers(min_value=1, max_value=256),
    )
    def test_fixed_chunk_shots_is_honoured(self, shots, workers, fixed):
        chunks = guided_chunks(shots, workers, chunk_shots=fixed)
        sizes = [stop - start for start, stop in chunks]
        assert sizes[:-1] == [fixed] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= fixed
        covered = [s for start, stop in chunks for s in range(start, stop)]
        assert covered == list(range(shots))

    @given(
        shots=st.integers(min_value=1, max_value=5000),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_contiguous_emulation_yields_one_chunk_per_worker(
        self, shots, workers
    ):
        # chunk_shots = ceil(shots/jobs) reproduces the historical
        # dispatch shape (the bench baseline arm): at most one chunk per
        # worker, so no self-scheduled rebalancing can happen.
        fixed = -(-shots // workers)
        chunks = guided_chunks(shots, workers, chunk_shots=fixed)
        assert len(chunks) <= workers
        covered = [s for start, stop in chunks for s in range(start, stop)]
        assert covered == list(range(shots))


class TestChunkQueueInvariants:
    @given(
        shots=st.integers(min_value=1, max_value=400),
        workers=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        loss_p=st.floats(min_value=0.0, max_value=0.6),
    )
    def test_loss_and_requeue_never_lose_or_duplicate_a_shot(
        self, shots, workers, seed, loss_p
    ):
        # Simulate the supervisor: pop chunks, "lose" some (requeue with
        # a bumped attempt), complete the rest.  Whatever the
        # interleaving, every shot completes exactly once, and a chunk's
        # attempt counts its losses.
        rng = random.Random(seed)
        queue = ChunkQueue.for_shots(shots, workers)
        completed = []
        losses = 0
        while queue.pending:
            chunk = queue.pop()
            assert chunk is not None
            # Cap per-chunk losses so the walk terminates even at high p.
            if chunk.attempt < 5 and rng.random() < loss_p:
                queue.requeue(chunk)
                losses += 1
                continue
            completed.extend(range(chunk.start, chunk.stop))
        assert sorted(completed) == list(range(shots))
        assert len(completed) == shots  # no duplicates
        assert queue.pop() is None
        assert queue.stats.refills == losses
        # Every pop counts: the initial chunks plus one re-dispatch per loss.
        assert queue.stats.dispatched == queue.stats.chunks + losses

    @given(
        shots=st.integers(min_value=1, max_value=400),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_take_all_drains_and_counts(self, shots, workers):
        queue = ChunkQueue.for_shots(shots, workers)
        total = queue.stats.chunks
        wave = queue.take_all()
        assert len(wave) == total
        assert not queue.pending
        assert queue.pending_shots == 0
        assert queue.stats.dispatched == total
        # A lost chunk comes back with its attempt bumped and is counted.
        queue.requeue(wave[0])
        assert queue.pending
        again = queue.pop()
        assert (again.start, again.stop) == (wave[0].start, wave[0].stop)
        assert again.attempt == wave[0].attempt + 1
        assert queue.stats.refills == 1


class TestProcessMatchesSerial:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        shots=st.integers(min_value=2, max_value=40),
        jobs=st.integers(min_value=2, max_value=3),
        chunk_shots=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        min_chunk_shots=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    def test_counts_bit_identical_across_chunkings(
        self, seed, shots, jobs, chunk_shots, min_chunk_shots
    ):
        text = bell_qir("static")
        serial = QirRuntime(seed=seed).run_shots(
            text, shots=shots, sampling="never", scheduler="serial"
        )
        process = QirRuntime(seed=seed).run_shots(
            text, shots=shots, sampling="never", scheduler="process",
            jobs=jobs, chunk_shots=chunk_shots, min_chunk_shots=min_chunk_shots,
        )
        assert process.counts == serial.counts


class TestProcessFaultsMatchSerial:
    """Real worker processes, injected process-level faults, few examples."""

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        site=st.sampled_from(["worker_crash", "worker_hang"]),
    )
    def test_lost_chunks_requeue_to_serial_counts(self, seed, site):
        text = reset_chain_qir(3, rounds=2)
        plan = FaultPlan.parse([f"{site},p=1.0,failures=1"], seed=seed)
        serial = QirRuntime(seed=seed).run_shots(
            text, shots=12, fault_plan=plan, sampling="never"
        )
        kwargs = {}
        if site == "worker_hang":
            kwargs["worker_timeout"] = 0.5
        supervised = QirRuntime(seed=seed).run_shots(
            text, shots=12, fault_plan=plan, sampling="never",
            scheduler="process", jobs=2, chunk_shots=4, **kwargs,
        )
        # Process sites are inert in the serial path, so serial is the
        # clean reference; the transient wave loss must re-enqueue every
        # chunk and merge each shot exactly once.
        assert supervised.counts == serial.counts
        assert supervised.total_shots == serial.total_shots == 12
        assert supervised.supervision is not None
        assert supervised.supervision.rounds >= 2
        assert supervised.supervision.redispatches > 0


class TestSchedulerKnobPlumbing:
    def test_serial_rejects_chunk_knobs(self):
        with pytest.raises(ValueError, match="require the process scheduler"):
            get_scheduler("serial", chunk_shots=4)
        with pytest.raises(ValueError, match="require the process scheduler"):
            get_scheduler("batched", min_chunk_shots=2)

    def test_invalid_chunk_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="chunk_shots must be >= 1"):
            get_scheduler("process", jobs=2, chunk_shots=0)
        with pytest.raises(ValueError, match="min_chunk_shots must be >= 1"):
            get_scheduler("process", jobs=2, min_chunk_shots=0)

    def test_chunked_process_scheduler_builds(self):
        scheduler = get_scheduler(
            "process", jobs=3, chunk_shots=5, min_chunk_shots=2
        )
        assert scheduler.chunk_shots == 5
        assert scheduler.min_chunk_shots == 2
