"""The unified schedule VM: invariants, stats, hooks, program reuse."""

import pickle

import pytest

from repro.checkpointing import (
    ChainSpec,
    Schedule,
    adjoint,
    advance,
    free,
    restore,
    revolve_schedule,
    simulate,
    snapshot,
    store_all_schedule,
)
from repro.engine import RunStats, SimBackend, StepStats, compose, execute
from repro.errors import ExecutionError


def _sched(l, slots, *actions, strategy="test"):
    return Schedule(strategy=strategy, length=l, slots=slots, actions=tuple(actions))


class TestInvariants:
    def test_length_mismatch(self):
        sch = revolve_schedule(5, 2)
        with pytest.raises(ExecutionError, match="chain length"):
            execute(sch, SimBackend(ChainSpec.homogeneous(7)))

    def test_advance_backwards(self):
        sch = _sched(3, 1, advance(2), advance(1))
        with pytest.raises(ExecutionError, match="ADVANCE to 1 from cursor 2"):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_advance_past_end(self):
        sch = _sched(3, 1, advance(4))
        with pytest.raises(ExecutionError, match=r"ADVANCE to 4 .*l=3"):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_snapshot_over_budget(self):
        sch = _sched(3, 2, snapshot(2))
        with pytest.raises(ExecutionError, match="SNAPSHOT into slot 2 exceeds budget 2"):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_snapshot_occupied_slot(self):
        sch = _sched(3, 2, snapshot(0), advance(1), snapshot(0))
        with pytest.raises(
            ExecutionError, match=r"SNAPSHOT into occupied slot 0 \(holds x_0\)"
        ):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_snapshot_after_free_is_fine(self):
        sch = _sched(1, 1, snapshot(0), free(0), snapshot(0), restore(0), adjoint(1))
        run = execute(sch, SimBackend(ChainSpec.homogeneous(1)))
        assert run.snapshots_taken == 2

    def test_restore_empty(self):
        sch = _sched(3, 2, restore(1))
        with pytest.raises(ExecutionError, match="RESTORE from empty slot 1"):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_free_empty(self):
        sch = _sched(3, 2, free(0))
        with pytest.raises(ExecutionError, match="FREE of empty slot 0"):
            execute(sch, SimBackend(ChainSpec.homogeneous(3)))

    def test_adjoint_out_of_order(self):
        sch = _sched(2, 1, snapshot(0), advance(1), adjoint(1))
        with pytest.raises(ExecutionError, match=r"ADJOINT\(1\) but pending backward is 2"):
            execute(sch, SimBackend(ChainSpec.homogeneous(2)))

    def test_adjoint_wrong_cursor(self):
        sch = _sched(2, 1, snapshot(0), adjoint(2))
        with pytest.raises(ExecutionError, match=r"ADJOINT\(2\) requires cursor at 1"):
            execute(sch, SimBackend(ChainSpec.homogeneous(2)))

    def test_unfinished_backwards(self):
        sch = _sched(2, 1, snapshot(0), advance(1), adjoint(2))
        with pytest.raises(ExecutionError, match="backward steps 1..1 still pending"):
            execute(sch, SimBackend(ChainSpec.homogeneous(2)))


class TestRunStats:
    def test_matches_simulate_wrapper(self):
        sch = revolve_schedule(20, 4)
        spec = ChainSpec.homogeneous(20, act_bytes=3)
        run = execute(sch, SimBackend(spec))
        stats = simulate(sch, spec)
        assert isinstance(run, RunStats)
        assert run.forward_steps == stats.forward_steps
        assert run.replay_steps == stats.replay_steps == 20
        assert run.peak_slots == stats.peak_slots
        assert run.peak_bytes == stats.peak_bytes
        assert run.peak_slot_bytes == stats.peak_slot_bytes
        assert run.executions == stats.executions
        assert run.snapshots_taken == stats.snapshots_taken
        assert run.restores == stats.restores
        assert run.total_time == stats.total_time

    def test_untired_backend_has_no_tiers(self):
        run = execute(store_all_schedule(6), SimBackend(ChainSpec.homogeneous(6)))
        assert run.tiers == ()
        assert run.transfer_seconds == 0.0
        with pytest.raises(KeyError):
            run.tier("disk")


class TestProgramReuse:
    def test_compiled_once_per_schedule_object(self, monkeypatch):
        from repro.engine import vm

        compiled = []  # lengths only: holding the schedules would keep them alive
        real = vm.compile_schedule
        monkeypatch.setattr(vm, "compile_schedule", lambda s: compiled.append(s.length) or real(s))
        sch = revolve_schedule(13, 3)
        twin = pickle.loads(pickle.dumps(sch))
        spec = ChainSpec.homogeneous(13)
        first = execute(sch, SimBackend(spec))
        assert execute(sch, SimBackend(spec), on_step=lambda _: None) == first
        assert len(compiled) == 1
        # An equal but distinct schedule gets its own program, and the
        # kept program leaves no trace in a schedule's value or pickle.
        assert execute(twin, SimBackend(spec)) == first
        assert len(compiled) == 2
        assert twin == sch and hash(twin) == hash(sch)
        assert pickle.dumps(twin) == pickle.dumps(sch)
        key = id(twin)
        del twin
        assert key not in vm._programs


class TestStepHook:
    def test_one_callback_per_action(self):
        sch = revolve_schedule(12, 3)
        seen: list[StepStats] = []
        execute(sch, SimBackend(ChainSpec.homogeneous(12)), on_step=seen.append)
        assert len(seen) == len(sch.actions)
        assert [s.pos for s in seen] == list(range(len(sch.actions)))
        assert seen[-1].backwards_done == 12
        done = [s.backwards_done for s in seen]
        assert done == sorted(done)

    def test_step_stats_mirror_vm_state(self):
        # ADJOINT(k) replays step k itself (youturn), so it runs from k-1.
        sch = _sched(2, 1, snapshot(0), advance(1), adjoint(2), restore(0), adjoint(1))
        seen = []
        execute(sch, SimBackend(ChainSpec.homogeneous(2, act_bytes=5)), on_step=seen.append)
        kinds = [s.kind.value for s in seen]
        assert kinds == ["snapshot", "advance", "adjoint", "restore", "adjoint"]
        assert [s.cursor for s in seen] == [0, 1, 1, 0, 0]
        assert [s.occupied_slots for s in seen] == [1, 1, 1, 1, 1]
        assert [s.forward_steps for s in seen] == [0, 1, 1, 1, 1]
        assert [s.replay_steps for s in seen] == [0, 0, 1, 1, 2]
        # slot 0 holds x_0 (5 bytes) throughout; cursor adds 5 more.
        assert all(s.slot_bytes == 5 for s in seen)
        assert all(s.live_bytes == 10 for s in seen)

    def test_compose_skips_none_and_fans_out(self):
        assert compose(None, None) is None
        a, b = [], []
        sole = a.append
        assert compose(sole, None) is sole
        both = compose(a.append, b.append)
        execute(
            store_all_schedule(3), SimBackend(ChainSpec.homogeneous(3)), on_step=both
        )
        assert len(a) == len(b) > 0
