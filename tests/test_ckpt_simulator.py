"""The schedule virtual machine: invariants, measurements, rejections."""

import pytest

from repro.checkpointing import (
    ChainSpec,
    Schedule,
    adjoint,
    advance,
    free,
    restore,
    simulate,
    snapshot,
    validate,
)
from repro.errors import ExecutionError, ScheduleError


def sched(l, slots, *actions):
    return Schedule(strategy="manual", length=l, slots=slots, actions=tuple(actions))


class TestHappyPath:
    def test_minimal_one_step(self):
        s = sched(1, 1, snapshot(0), restore(0), adjoint(1))
        stats = simulate(s)
        assert stats.forward_steps == 0
        assert stats.replay_steps == 1
        assert stats.peak_slots == 1

    def test_two_step_with_snapshot(self):
        s = sched(
            2, 2,
            snapshot(0), advance(1), snapshot(1),
            restore(1), adjoint(2),
            restore(0), adjoint(1),
        )
        stats = simulate(s)
        assert stats.forward_steps == 1
        assert stats.executions == (2, 1)  # F1: advance+replay, F2: replay

    def test_peak_bytes_weighted_by_sizes(self):
        spec = ChainSpec(name="w", act_bytes=(5, 1, 10), fwd_cost=(1, 1), bwd_cost=(1, 1))
        s = sched(
            2, 2,
            snapshot(0), advance(1), snapshot(1),
            restore(1), adjoint(2), restore(0), adjoint(1),
        )
        stats = simulate(s, spec)
        assert stats.peak_slot_bytes == 5 + 1
        # peak_bytes additionally charges the cursor; the peak is at the
        # final restore(0): slots {x0:5, x1:1} + cursor x0 (5) = 11.
        assert stats.peak_bytes == 5 + 1 + 5

    def test_free_reduces_occupancy(self):
        s = sched(
            2, 2,
            snapshot(0), advance(1), snapshot(1), free(1),
            restore(0), advance(1), adjoint(2),
            restore(0), adjoint(1),
        )
        stats = simulate(s)
        assert stats.restores == 2
        # freeing x_1 forces the re-advance measured as an extra forward
        assert stats.extra_forward_steps() == 1

    def test_extra_forward_steps_convention(self):
        """store-all-like run has extra == 0."""
        s = sched(
            2, 2,
            snapshot(0), advance(1), snapshot(1),
            restore(1), adjoint(2), restore(0), adjoint(1),
        )
        assert simulate(s).extra_forward_steps() == 0

    def test_recompute_factor_one_for_no_recompute(self):
        spec = ChainSpec.homogeneous(2)
        s = sched(
            2, 2,
            snapshot(0), advance(1), snapshot(1),
            restore(1), adjoint(2), restore(0), adjoint(1),
        )
        assert simulate(s, spec).recompute_factor(spec) == pytest.approx(1.0)


class TestAdvanceInteriors:
    """An ADVANCE charges every activation it passes through, not only
    the one it stops at: here ``A3`` passes the 100-byte ``x_2`` while
    slots hold ``x_0`` and ``x_1`` (1 + 50 + 100 = 151)."""

    SPEC = ChainSpec(
        name="bulge", act_bytes=(1, 50, 100, 1), fwd_cost=(1, 1, 1), bwd_cost=(1, 1, 1)
    )
    SCHEDULE = sched(
        3, 2,
        snapshot(0), advance(1), snapshot(1), advance(3), restore(1), free(1),
        advance(2), adjoint(3), restore(0), advance(1), adjoint(2),
        restore(0), free(0), adjoint(1),
    )

    def test_vectorized_path(self):
        assert simulate(self.SCHEDULE, self.SPEC).peak_bytes == 151

    def test_per_action_path(self):
        from repro.engine import SimBackend, execute

        run = execute(self.SCHEDULE, SimBackend(self.SPEC), on_step=lambda step: None)
        assert run.peak_bytes == 151

    def test_tiered_backend(self):
        from repro.engine import TieredBackend, execute

        assert execute(self.SCHEDULE, TieredBackend(self.SPEC)).peak_bytes == 151


class TestRejections:
    def test_advance_backwards(self):
        s = sched(2, 1, snapshot(0), advance(2), advance(1), adjoint(2))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_advance_past_end(self):
        s = sched(2, 1, snapshot(0), advance(3))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_restore_empty_slot(self):
        s = sched(1, 1, restore(0), adjoint(1))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_free_empty_slot(self):
        s = sched(1, 1, free(0))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_snapshot_over_budget(self):
        s = sched(1, 1, snapshot(1))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_adjoint_out_of_order(self):
        s = sched(2, 2, snapshot(0), adjoint(1))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_adjoint_wrong_cursor(self):
        s = sched(2, 1, snapshot(0), adjoint(2))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_incomplete_backward(self):
        s = sched(2, 2, snapshot(0), advance(1), adjoint(2))
        with pytest.raises(ExecutionError):
            simulate(s)

    def test_length_mismatch(self):
        s = sched(2, 1, snapshot(0))
        with pytest.raises(ExecutionError):
            simulate(s, ChainSpec.homogeneous(3))

    def test_validate_is_boolean(self):
        good = sched(1, 1, snapshot(0), restore(0), adjoint(1))
        bad = sched(1, 1, snapshot(0))
        assert validate(good)
        assert not validate(bad)


class TestScheduleContainer:
    def test_counts(self):
        s = sched(1, 1, snapshot(0), restore(0), adjoint(1))
        assert s.snapshot_count == 1
        assert s.adjoint_count == 1
        assert len(s) == 3

    def test_used_slots(self):
        s = sched(2, 3, snapshot(2), advance(1), snapshot(0))
        assert s.used_slots() == {0, 2}

    def test_describe_truncates(self):
        s = sched(1, 1, *([snapshot(0)] * 100))
        text = s.describe(max_lines=5)
        assert "more" in text

    def test_validation(self):
        with pytest.raises(ScheduleError):
            Schedule(strategy="x", length=0, slots=1)
        with pytest.raises(ScheduleError):
            Schedule(strategy="x", length=1, slots=-1)

    def test_action_negative_arg(self):
        with pytest.raises(ScheduleError):
            advance(-1)
