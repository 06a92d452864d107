"""RunContext and ULID-style run ids."""

import dataclasses

import pytest

from repro.obs.runctx import (
    RUN_ID_LENGTH,
    RunContext,
    is_run_id,
    new_run_id,
)


class TestRunId:
    def test_shape(self):
        run_id = new_run_id()
        assert len(run_id) == RUN_ID_LENGTH == 26
        assert is_run_id(run_id)

    def test_uniqueness(self):
        assert len({new_run_id() for _ in range(200)}) == 200

    def test_time_sortable(self):
        earlier = new_run_id(timestamp_ms=1_000_000)
        later = new_run_id(timestamp_ms=2_000_000)
        assert earlier < later

    def test_same_millisecond_shares_prefix(self):
        a = new_run_id(timestamp_ms=1_234_567_890)
        b = new_run_id(timestamp_ms=1_234_567_890)
        assert a[:10] == b[:10]
        assert a[10:] != b[10:]

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "short",
            "x" * 26,          # lowercase is outside the alphabet
            "I" * 26,          # Crockford excludes I, L, O, U
            "0" * 25,
            "0" * 27,
            None,
            26,
        ],
    )
    def test_is_run_id_rejects(self, value):
        assert not is_run_id(value)


class TestRunContext:
    def test_defaults_mint_an_id(self):
        context = RunContext()
        assert is_run_id(context.run_id)
        assert context.scheduler == "auto"
        assert context.plan_key is None

    def test_frozen(self):
        context = RunContext()
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.scheduler = "process"

    def test_with_labels_keeps_run_id(self):
        context = RunContext()
        updated = context.with_labels(
            scheduler="process", jobs=4, run_id="SHOULD-BE-IGNORED"
        )
        assert updated.run_id == context.run_id
        assert updated.scheduler == "process"
        assert updated.jobs == 4
        # The original is untouched (frozen + replace semantics).
        assert context.scheduler == "auto"

    def test_short_id_is_suffix(self):
        context = RunContext()
        assert context.short_id == context.run_id[-8:]
        assert len(context.short_id) == 8

    def test_labels_skip_nones(self):
        labels = RunContext().labels()
        assert set(labels) == {"run_id", "scheduler", "backend", "jobs"}

    def test_labels_include_optionals(self):
        context = RunContext(
            plan_key="abc:o1:statevector:main",
            entry="main",
            parent_span_id="span-7",
        )
        labels = context.labels()
        assert labels["plan_key"] == "abc:o1:statevector:main"
        assert labels["entry"] == "main"
        assert labels["parent_span_id"] == "span-7"
