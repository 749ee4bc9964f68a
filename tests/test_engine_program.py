"""The flat program IR: round-trip, differential and cache-layer tests.

The compiler must be a lossless, validation-complete lowering: compile →
decompile reproduces the exact Schedule for every strategy family, the
compiled paths (vectorized sim, generic dispatch, traced) produce
bit-identical RunStats/TierStats/StepStats to the frozen reference
interpreter (``tests/vm_reference.py``), and every invariant violation
raises the same ExecutionError text at compile time that the reference
raises at run time — before ``execute`` lets the backend run anything.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.autodiff import DenseLayer, SequentialNet
from repro.checkpointing import (
    ChainSpec,
    Schedule,
    program_cache_info,
    schedule_cache_info,
    set_program_store,
    simulate,
    slots_for_rho,
    slots_for_rhos,
)
from repro.checkpointing.actions import Action, ActionKind
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.edge.storage import SD_CARD
from repro.engine import (
    SimBackend,
    TensorBackend,
    TieredBackend,
    compile_schedule,
    decompile,
    execute,
    program_from_payload,
)
from repro.errors import ExecutionError, ScheduleError
from repro.lab import ArtifactStore

from .vm_reference import reference_execute

FAMILIES = available_strategies()


def _random_spec(l: int, seed: int) -> ChainSpec:
    rng = np.random.default_rng(seed)
    return ChainSpec(
        name=f"h{seed}",
        act_bytes=tuple(int(b) for b in rng.integers(1, 2048, l + 1)),
        fwd_cost=tuple(float(f) for f in rng.uniform(0.1, 3.0, l)),
        bwd_cost=tuple(float(f) for f in rng.uniform(0.1, 3.0, l)),
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        l=st.integers(min_value=2, max_value=12),
        slots=st.integers(min_value=1, max_value=8),
    )
    def test_compile_decompile_is_identity(self, family, l, slots):
        strat = get_strategy(family)
        assume(strat.feasible(l, slots))
        sch = strat.build_schedule(l, slots)
        assert decompile(compile_schedule(sch)) == sch

    def test_payload_roundtrip_preserves_digest(self):
        sch = get_strategy("revolve").build_schedule(21, 4)
        program = compile_schedule(sch)
        rebuilt = program_from_payload(program.to_payload())
        assert rebuilt.digest == program.digest
        assert decompile(rebuilt) == sch

    def test_digest_depends_on_actions(self):
        a = compile_schedule(get_strategy("revolve").build_schedule(13, 3))
        b = compile_schedule(get_strategy("revolve").build_schedule(13, 4))
        assert a.digest != b.digest

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.pop("digest"),
            lambda p: p.update(digest="0" * 64),
            lambda p: p.update(version=99),
            lambda p: p.update(opcodes=p["opcodes"][:-1]),
            lambda p: p["opcodes"].__setitem__(0, 17),
            lambda p: p["args"].__setitem__(0, 10**6),
        ],
    )
    def test_tampered_payload_is_rejected(self, corrupt):
        payload = compile_schedule(
            get_strategy("revolve").build_schedule(8, 3)
        ).to_payload()
        corrupt(payload)
        with pytest.raises(ScheduleError):
            program_from_payload(payload)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        l=st.integers(min_value=2, max_value=10),
        slots=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sim_stats_bit_identical(self, family, l, slots, seed):
        strat = get_strategy(family)
        assume(strat.feasible(l, slots))
        sch = strat.build_schedule(l, slots)
        program = compile_schedule(sch)
        for spec in (ChainSpec.homogeneous(l), _random_spec(l, seed)):
            interpreted = reference_execute(sch, SimBackend(spec))
            assert execute(sch, SimBackend(spec), compiled=program) == interpreted
            assert execute(sch, SimBackend(spec)) == interpreted

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tier_stats_bit_identical(self, family):
        strat = get_strategy(family)
        l, slots = 13, 3
        if not strat.feasible(l, slots):
            l, slots = 13, 12
        sch = strat.build_schedule(l, slots)
        program = compile_schedule(sch)
        spec = ChainSpec.homogeneous(l, act_bytes=4096)
        interpreted = reference_execute(sch, TieredBackend(spec, disk=SD_CARD))
        compiled = execute(
            sch, TieredBackend(spec, disk=SD_CARD), compiled=program
        )
        assert compiled == interpreted
        assert compiled.tiers == interpreted.tiers

    def test_traced_step_stats_identical_shapes(self):
        sch = get_strategy("revolve").build_schedule(13, 3)
        program = compile_schedule(sch)
        spec = ChainSpec.homogeneous(13)
        interp_steps, comp_steps = [], []
        a = reference_execute(sch, SimBackend(spec), on_step=interp_steps.append)
        b = execute(
            sch, SimBackend(spec), on_step=comp_steps.append, compiled=program
        )
        assert a == b
        assert len(interp_steps) == len(comp_steps) == len(sch.actions)
        for x, y in zip(interp_steps, comp_steps):
            dx, dy = dataclasses.asdict(x), dataclasses.asdict(y)
            dx.pop("started"), dy.pop("started")
            assert dx == dy

    def test_simulate_compiled_kwarg_matches(self):
        sch = get_strategy("sqrt").build_schedule(16, 8)
        program = compile_schedule(sch)
        assert simulate(sch, compiled=program) == simulate(sch)

    def test_mismatched_program_is_rejected(self):
        revolve = get_strategy("revolve")
        # The second pair shares strategy name, length, slot budget and
        # action count: only the op/arg rows tell the programs apart.
        same_shape = (
            _sched(3, 2, Action(_S, 0), Action(_A, 2), Action(_J, 3), Action(_R, 0),
                   Action(_A, 1), Action(_J, 2), Action(_R, 0), Action(_J, 1),
                   Action(_F, 0), strategy="x"),
            _sched(3, 2, Action(_S, 0), Action(_A, 1), Action(_S, 1), Action(_A, 2),
                   Action(_J, 3), Action(_R, 1), Action(_J, 2), Action(_R, 0),
                   Action(_J, 1), strategy="x"),
        )
        for sch, other in (
            (revolve.build_schedule(8, 3), revolve.build_schedule(8, 4)),
            same_shape,
        ):
            with pytest.raises(ExecutionError, match="does not match schedule"):
                execute(
                    sch,
                    SimBackend(ChainSpec.homogeneous(sch.length)),
                    compiled=compile_schedule(other),
                )


def _sched(l, slots, *actions, strategy="bad"):
    return Schedule(strategy=strategy, length=l, slots=slots, actions=actions)


_A = ActionKind.ADVANCE
_S = ActionKind.SNAPSHOT
_R = ActionKind.RESTORE
_F = ActionKind.FREE
_J = ActionKind.ADJOINT


class _CountingDense(DenseLayer):
    forwards = 0

    def forward(self, x):
        self.forwards += 1
        return super().forward(x)


class _CountingTensorBackend(TensorBackend):
    begins = 0

    def begin(self, program):
        self.begins += 1
        super().begin(program)


class TestErrorParity:
    """compile_schedule must fail exactly like the reference interpreter,
    and execute must fail that way before the backend runs anything."""

    BAD = [
        _sched(3, 1, Action(_A, 2), Action(_A, 1)),  # backwards advance
        _sched(3, 1, Action(_A, 4)),  # past the chain
        _sched(3, 1, Action(_S, 1)),  # slot over budget
        _sched(3, 2, Action(_S, 0), Action(_A, 1), Action(_S, 0)),  # occupied
        _sched(3, 1, Action(_R, 0)),  # restore empty
        _sched(3, 1, Action(_F, 0)),  # free empty
        _sched(3, 1, Action(_A, 3), Action(_J, 2)),  # adjoint out of order
        _sched(3, 1, Action(_A, 1), Action(_J, 3)),  # cursor not parked
        _sched(3, 1, Action(_A, 3), Action(_J, 3)),  # backwards left pending
    ]

    @pytest.mark.parametrize("bad", BAD)
    def test_same_message_compiled_and_interpreted(self, bad, rng):
        with pytest.raises(ExecutionError) as interpreted:
            reference_execute(bad, SimBackend(ChainSpec.homogeneous(bad.length)))
        with pytest.raises(ExecutionError) as compiled:
            compile_schedule(bad)
        assert str(compiled.value) == str(interpreted.value)
        net = SequentialNet(
            [_CountingDense(4, 4, rng, name=f"d{i}") for i in range(bad.length)]
        )
        backend = _CountingTensorBackend(net, rng.normal(size=(2, 4)), np.array([0, 1]))
        with pytest.raises(ExecutionError) as executed:
            execute(bad, backend)
        assert str(executed.value) == str(interpreted.value)
        assert backend.begins == 0
        assert [layer.forwards for layer in net.layers] == [0] * bad.length


@pytest.mark.usefixtures("fresh_schedule_cache")
class TestProgramCache:
    def test_memory_layer_hits(self):
        strat = get_strategy("revolve")
        first = strat.compiled(21, 4)
        second = strat.compiled(21, 4)
        assert second is first
        info = program_cache_info()
        assert (info.hits, info.misses, info.programs) == (1, 1, 1)
        assert (info.store_hits, info.store_writes) == (0, 0)

    def test_compiled_seeds_schedule_cache(self):
        strat = get_strategy("revolve")
        program = strat.compiled(13, 3)
        assert strat.schedule(13, 3) == decompile(program)
        # the decompiled schedule was seeded, so that lookup was a hit
        assert schedule_cache_info().hits >= 1

    def test_clear_drops_program_layer(self):
        get_strategy("revolve").compiled(13, 3)
        from repro.checkpointing import clear_schedule_cache

        clear_schedule_cache()
        info = program_cache_info()
        assert info == type(info)(0, 0, 0, 0, 0)

    def test_store_round_trip_across_caches(self, tmp_path):
        from repro.checkpointing import clear_schedule_cache

        store = ArtifactStore(tmp_path)
        set_program_store(store)
        strat = get_strategy("revolve")
        program = strat.compiled(21, 4)
        assert program_cache_info().store_writes == 1
        files = list((tmp_path / "programs").glob("*.json"))
        assert len(files) == 1
        # a fresh cache (new process stand-in) hydrates from the store
        clear_schedule_cache()
        set_program_store(store)
        rehydrated = strat.compiled(21, 4)
        info = program_cache_info()
        assert (info.store_hits, info.store_writes) == (1, 0)
        assert rehydrated.digest == program.digest

    def test_corrupt_store_entry_recompiled(self, tmp_path):
        from repro.checkpointing import clear_schedule_cache

        store = ArtifactStore(tmp_path)
        set_program_store(store)
        strat = get_strategy("revolve")
        strat.compiled(13, 3)
        path = next((tmp_path / "programs").glob("*.json"))
        path.write_text('{"version": 1, "garbage": true}')
        clear_schedule_cache()
        set_program_store(store)
        program = strat.compiled(13, 3)
        info = program_cache_info()
        assert (info.store_hits, info.store_writes) == (0, 1)
        assert decompile(program) == strat.schedule(13, 3)

    def test_measured_matches_direct_simulation(self):
        strat = get_strategy("disk_revolve")
        direct = simulate(strat.build_schedule(21, 3))
        assert strat.measured(21, 3) == direct


class TestBatchedPlanner:
    @pytest.mark.parametrize("l", [1, 2, 3, 5, 18, 34, 152])
    def test_matches_scalar_inversion(self, l):
        rhos = [1.0, 1.001, 1.05, 1.2, 1.5, 2.0, 3.0, 10.0]
        assert slots_for_rhos(l, rhos) == [slots_for_rho(l, r) for r in rhos]

    def test_rejects_rho_below_one(self):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError, match="recompute factor"):
            slots_for_rhos(10, [1.5, 0.9])

    def test_empty_grid(self):
        assert slots_for_rhos(10, []) == []
