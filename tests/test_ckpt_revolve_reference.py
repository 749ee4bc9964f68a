"""One reversal emitter vs the two it replaced.

``revolve_schedule`` and the joint planner's in-RAM segment reversals
now run through ``SegmentDP.emit`` (Revolve as ``RevolveDP``, the
closed-form instance of the slot-count segment DP).  The emitter,
split table and inner solvers they replaced live on in
:mod:`tests.revolve_reference`; this file pins that the new code plans
exactly what the old code planned: the same actions, strategy and slot
budget, and the same ``joint_cost`` bit for bit.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    ChainSpec,
    EnergyObjective,
    TimeObjective,
    UnitCostObjective,
    get_strategy,
    joint_cost,
    joint_schedule,
    opt_forwards,
    revolve_schedule,
)
from repro.checkpointing import strategies
from repro.checkpointing.revolve import RevolveDP
from repro.edge.storage import BITTRAIN_SPARSE, EMMC, FP16_CAST, SD_CARD

from . import revolve_reference as ref

PRICES = (0.0, 0.5, 1.0, 3.0, math.inf)
CODECS = (None, BITTRAIN_SPARSE, FP16_CAST)


def assert_same(new, old):
    assert new.actions == old.actions
    assert new.strategy == old.strategy
    assert new.slots == old.slots


@given(l=st.integers(1, 160), c=st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_revolve_schedule_matches_frozen_emitter(l, c):
    assert_same(revolve_schedule(l, c), ref.revolve_schedule(l, c))


@given(l=st.integers(1, 60), c=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_revolve_dp_answers_from_closed_form(l, c):
    dp = RevolveDP(l, c, unit=2.0)
    for i in range(l):
        assert dp.cost(i, l, c) == opt_forwards(l - i, c) * 2.0
        assert dp.solve(i, l, c) == (dp.cost(i, l, c), dp.split(i, l, c))
    assert dp.cost(l, l, c) == 0.0


@st.composite
def chains(draw):
    """Uniform-step or heterogeneous chains with random activation sizes."""
    l = draw(st.integers(1, 30))
    acts = tuple(draw(st.lists(st.integers(1, 1 << 20), min_size=l + 1, max_size=l + 1)))
    if draw(st.booleans()):
        fwd = (float(draw(st.integers(1, 1000))),) * l
    else:
        fwd = tuple(float(f) for f in draw(st.lists(st.integers(1, 1000), min_size=l, max_size=l)))
    return ChainSpec(name="rand", act_bytes=acts, fwd_cost=fwd, bwd_cost=fwd)


@st.composite
def objectives(draw, spec):
    codec = draw(st.sampled_from(CODECS))
    kind = draw(st.sampled_from(("unit", "time", "energy")))
    if kind == "unit":
        w, r = draw(st.sampled_from(PRICES)), draw(st.sampled_from(PRICES))
        return UnitCostObjective(spec, w, r, codec=codec)
    disk = draw(st.sampled_from((SD_CARD, EMMC)))
    scale = draw(st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
    if kind == "time":
        return TimeObjective(spec, disk=disk, unit_seconds=scale, codec=codec)
    return EnergyObjective(spec, disk=disk, compute_j_per_unit=scale, codec=codec)


@given(data=st.data(), c=st.integers(1, 6))
@settings(max_examples=400, deadline=None)
def test_joint_matches_frozen_inner_solvers(data, c):
    spec = data.draw(chains())
    obj = data.draw(objectives(spec))
    assert_same(joint_schedule(spec, c, obj), ref.joint_schedule(spec, c, obj))
    assert repr(joint_cost(spec, c, obj)) == repr(ref._solve(spec, c, obj)[0])


#: Registered families whose schedules come out of a reversal emitter
#: (uniform, sqrt and store_all emit their own fixed patterns).
EMITTING = (
    "revolve", "hetero", "budget", "disk_revolve",
    "joint_time", "joint_energy", "revolve_zip", "joint_zip",
)


@given(
    name=st.sampled_from(EMITTING),
    l=st.integers(1, 60),
    c=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_registry_families_match_frozen_emitter(name, l, c):
    """Each emitting family, built again with the frozen emitters swapped in."""
    strategy = get_strategy(name)
    if name in ("hetero", "budget") and l > 40:
        l = 40  # O(l³) families; both sides share SegmentDP.emit anyway
    new = strategy.build_schedule(l, c)
    with (
        mock.patch.object(strategies, "revolve_schedule", ref.revolve_schedule),
        mock.patch.object(strategies, "joint_schedule", ref.joint_schedule),
    ):
        old = strategy.build_schedule(l, c)
    assert_same(new, old)
