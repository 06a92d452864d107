from itertools import islice

import pytest

from workloads import STREAMS, WORKLOADS, cli_pool, shot_pool

COUNT = {"cli_cold": 20, "compile_stream": 30, "shot_stream": 14}


def _stream(name, seed):
    return [
        (r.program, r.text, r.pipeline, r.shots, r.seed, repr(r.ref))
        for r in islice(STREAMS[name](seed), COUNT[name])
    ]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_gives_identical_stream(name):
    assert _stream(name, 11) == _stream(name, 11)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_different_seed_gives_different_stream(name):
    assert _stream(name, 11) != _stream(name, 12)


def test_every_workload_has_a_rationale():
    assert sorted(WORKLOADS) == sorted(STREAMS)
    for workload in WORKLOADS.values():
        assert workload.loop == "closed" and workload.clients == 1
        assert workload.why and workload.sharing and workload.working_set


def test_pools_hold_distinct_programs():
    assert len({r.text for r in cli_pool(3)}) == 8
    assert len({r.text for r in shot_pool(3)}) == 7


def test_compile_stream_programs_are_fresh():
    texts = [r.text for r in islice(STREAMS["compile_stream"](5), 36)]
    random_texts = [t for t in texts if "for.header" not in t]
    assert len(set(random_texts)) == len(random_texts)
