import numpy as np
import pytest

from reference import (
    Reference,
    reference_for,
    repetition_reference,
    reset_chain_reference,
    teleport_reference,
)
from workloads import shot_pool

SHOTS = 400


def _expected_counts(ref: Reference, shots: int):
    """Counts as close to the reference as integers allow."""
    raw = ref.probs * shots
    counts = np.floor(raw).astype(int)
    for i in np.argsort(raw - counts)[::-1][: shots - counts.sum()]:
        counts[i] += 1
    return {
        format(int(k), f"0{ref.width}b"): int(c)
        for k, c in zip(ref.outcomes, counts)
        if c
    }


def test_exact_histogram_passes():
    ref = reset_chain_reference(3, 4, 0.35)
    assert ref.check(_expected_counts(ref, SHOTS), SHOTS) is None


def test_swapped_counts_are_rejected():
    # A skewed distribution, as the workloads' reset chains produce: the
    # bound is rigorous, so it cannot tell apart swaps between outcomes
    # of nearly equal probability at a few hundred shots.
    ref = reset_chain_reference(3, 4, 0.6)
    counts = _expected_counts(ref, SHOTS)
    ordered = sorted(counts, key=counts.get)
    low, high = ordered[0], ordered[-1]
    counts[low], counts[high] = counts[high], counts[low]
    assert ref.check(counts, SHOTS) is not None


def test_shifted_counts_are_rejected():
    ref = teleport_reference()
    counts = _expected_counts(ref, SHOTS)
    shifted = {format(int(k, 2) << 1, "03b"): v for k, v in counts.items() if k[0] == "0"}
    assert ref.check(shifted, SHOTS) is not None


def test_outcome_outside_support_is_rejected():
    ref = repetition_reference(3, 1, 1, False)
    key = format(int(ref.outcomes[0]), f"0{ref.width}b")
    flipped = key[:-1] + ("1" if key[-1] == "0" else "0")
    assert ref.check({key: SHOTS - 1, flipped: 1}, SHOTS) is not None


def test_wrong_total_is_rejected():
    ref = teleport_reference()
    counts = _expected_counts(ref, SHOTS)
    counts[next(iter(counts))] += 1
    assert ref.check(counts, SHOTS) is not None


def test_repetition_reference_reads_the_logical_value():
    ref = repetition_reference(5, 3, None, True)
    assert ref.width == 17
    assert format(int(ref.outcomes[0]), "017b") == "11111" + "0" * 12


@pytest.mark.parametrize("request_index", range(7))
def test_pool_references_are_distributions(request_index):
    request = shot_pool(2)[request_index]
    ref = reference_for(request.text, request.ref)
    assert ref.probs.sum() == pytest.approx(1.0)
    assert (ref.outcomes < (1 << ref.width)).all()
