"""The analytic pass against the frozen per-action analytic backends.

``SimBackend``, ``TieredBackend`` and ``CompressedBackend`` are now one
whole-program pass over the compiled program
(:meth:`repro.engine.sim.SimBackend.run`).  The backends they replaced
ran one VM call per action; they are frozen in
``tests/analytic_backend_reference.py`` and driven here by the frozen
interpreter (``tests/vm_reference.py``).  On random heterogeneous chains,
for every registry family, the joint planner under unit-price, time and
energy objectives with and without a codec, and compressed variants of
plain schedules, each backend configuration must give the same
``RunStats`` (tier and codec ledgers included) and the same traced
``StepStats`` but for ``started``, traced and untraced.
"""

import dataclasses

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.engine as engine
from repro.checkpointing import ChainSpec, compressed_variant
from repro.checkpointing.joint import (
    EnergyObjective,
    TimeObjective,
    UnitCostObjective,
    joint_schedule,
)
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.edge.storage import EMMC, SD_CARD, StorageProfile, compression_models
from repro.engine import compile_schedule, execute

from . import analytic_backend_reference as frozen
from .vm_reference import reference_execute

FAMILIES = available_strategies()
CODECS = tuple(compression_models().values())
#: A profile whose read path differs from its write path.
SLOW_READ = StorageProfile(
    name="slow-read", write_bytes_per_s=3e6, write_latency_s=0.003,
    read_bytes_per_s=1.1e6, read_latency_s=0.007,
)
PROFILES = (None, SD_CARD, EMMC, SLOW_READ)
OBJECTIVES = ("unit", "time", "energy")


@st.composite
def chains(draw, l: int) -> ChainSpec:
    """A chain of length ``l`` with unequal activation sizes and costs."""
    size = st.integers(min_value=1, max_value=1 << 22)
    cost = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
    return ChainSpec(
        name="drawn",
        act_bytes=tuple(draw(st.lists(size, min_size=l + 1, max_size=l + 1))),
        fwd_cost=tuple(draw(st.lists(cost, min_size=l, max_size=l))),
        bwd_cost=tuple(draw(st.lists(cost, min_size=l, max_size=l))),
    )


@st.composite
def schedules(draw):
    """``(schedule, spec)``: a registry family, a joint plan or a
    compressed variant of either, on a drawn heterogeneous chain."""
    l = draw(st.integers(min_value=1, max_value=14))
    c = draw(st.integers(min_value=1, max_value=6))
    spec = draw(chains(l))
    if draw(st.booleans()):
        strat = get_strategy(draw(st.sampled_from(FAMILIES)))
        assume(strat.feasible(l, c))
        sch = strat.build_schedule(l, c)
    else:
        kind = draw(st.sampled_from(OBJECTIVES))
        codec = draw(st.sampled_from((None,) + CODECS))
        disk = draw(st.sampled_from(PROFILES[1:]))
        if kind == "unit":
            w = draw(st.floats(min_value=0.0, max_value=5.0))
            r = draw(st.floats(min_value=0.0, max_value=5.0))
            objective = UnitCostObjective(spec, w, r, codec=codec)
        elif kind == "time":
            unit = draw(st.floats(min_value=1e-4, max_value=1.0))
            objective = TimeObjective(spec, disk=disk, unit_seconds=unit, codec=codec)
        else:
            objective = EnergyObjective(spec, disk=disk, codec=codec)
        sch = joint_schedule(spec, c, objective)
    if draw(st.booleans()) and not compile_schedule(sch).compressed:
        sch = compressed_variant(sch, sch.strategy + "_zip")
    return sch, spec


@st.composite
def configs(draw):
    """``make(m)``: one backend configuration, built from module ``m``
    (the frozen per-action classes or the engine's)."""
    kind = draw(st.sampled_from(("sim", "tiered", "compressed")))
    memory = draw(st.sampled_from(PROFILES))
    disk = draw(st.sampled_from(PROFILES))
    if kind == "sim":
        return lambda m, spec: m.SimBackend(spec)
    if kind == "tiered":
        return lambda m, spec: m.TieredBackend(spec, memory=memory, disk=disk)
    codec = draw(st.sampled_from(CODECS))
    return lambda m, spec: m.CompressedBackend(spec, codec, memory=memory, disk=disk)


def _traced(run, sch, backend):
    steps = []
    stats = run(sch, backend, on_step=steps.append)
    rows = []
    for step in steps:
        row = dataclasses.asdict(step)
        del row["started"]
        rows.append(row)
    return stats, rows


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(drawn=schedules(), make=configs())
def test_pass_matches_per_action_backends(drawn, make):
    sch, spec = drawn
    want = reference_execute(sch, make(frozen, spec))
    got = execute(sch, make(engine, spec))
    assert got == want
    assert got.tiers == want.tiers
    assert got.compression == want.compression

    want_traced, want_steps = _traced(reference_execute, sch, make(frozen, spec))
    got_traced, got_steps = _traced(execute, sch, make(engine, spec))
    assert got_traced == want_traced == want
    assert got_steps == want_steps


def test_every_configuration_on_a_paged_compressed_plan():
    """One plan that touches both tiers and the codec, on every backend
    configuration, so no drawn-example luck is needed to reach them."""
    l, c = 12, 2
    spec = ChainSpec(
        name="mixed",
        act_bytes=tuple(1000 + 977 * k for k in range(l + 1)),
        fwd_cost=tuple(0.5 + 0.25 * (k % 3) for k in range(l)),
        bwd_cost=tuple(1.0 + 0.5 * (k % 2) for k in range(l)),
    )
    objective = UnitCostObjective(spec, 0.5, 0.5, codec=CODECS[1])
    sch = joint_schedule(spec, c, objective)
    program = compile_schedule(sch)
    assert program.paged and program.compressed
    makers = [lambda m: m.SimBackend(spec)]
    for memory in PROFILES:
        for disk in PROFILES:
            makers.append(lambda m, a=memory, b=disk: m.TieredBackend(spec, memory=a, disk=b))
            for codec in CODECS:
                makers.append(
                    lambda m, a=memory, b=disk, z=codec: m.CompressedBackend(
                        spec, z, memory=a, disk=b
                    )
                )
    for make in makers:
        want, want_steps = _traced(reference_execute, sch, make(frozen))
        got, got_steps = _traced(execute, sch, make(engine))
        assert got == want == execute(sch, make(engine))
        assert got_steps == want_steps
