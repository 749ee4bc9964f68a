"""Disk-revolve preset vs the frozen ``DR`` recurrence it replaced.

``disk_revolve_cost`` / ``_splits`` / ``_schedule`` are presets of the
joint DP at unit paging prices.  The recurrence and schedule emitter
they replaced live on in :mod:`tests.multilevel_reference`; this file
pins that the preset plans exactly what the old planner planned: the
same actions, slot budget and splits, and the same cost up to summation
order.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    disk_revolve_cost,
    disk_revolve_schedule,
    disk_revolve_splits,
    get_strategy,
)

from . import multilevel_reference as ref

PRICES = (0.0, 0.1, 0.25, 0.5, 1.0, 3.0, 1e9, math.inf)

lengths = st.integers(1, 60)
slots = st.integers(1, 7)
prices = st.sampled_from(PRICES)


@given(l=lengths, c=slots, w=prices, r=prices)
@settings(max_examples=300, deadline=None)
def test_preset_matches_frozen_recurrence(l, c, w, r):
    new = disk_revolve_schedule(l, c, w, r)
    old = ref.disk_revolve_schedule(l, c, w, r)
    assert new.actions == old.actions
    assert new.slots == old.slots
    assert disk_revolve_splits(l, c, w, r) == ref.disk_revolve_splits(l, c, w, r)
    assert math.isclose(
        disk_revolve_cost(l, c, w, r), ref.disk_revolve_cost(l, c, w, r), rel_tol=1e-12
    )


@given(l=lengths, c=slots)
@settings(max_examples=60, deadline=None)
def test_registered_families_match_frozen_schedule(l, c):
    """``disk_revolve`` and ``joint_time`` both price paging at one
    forward unit, so the registry builds the same actions for both."""
    disk = get_strategy("disk_revolve").build_schedule(l, c)
    joint = get_strategy("joint_time").build_schedule(l, c)
    assert disk.actions == joint.actions == ref.disk_revolve_schedule(l, c).actions
    assert disk.strategy == f"disk_revolve(c={c})"


def test_paper_depth_matches_frozen_recurrence():
    """LinearResNet-152 at the CLI's defaults and a few price points."""
    for c, w, r in ((3, 1.0, 1.0), (2, 0.25, 0.25), (3, 2.0, 1.0), (8, 0.25, 4.0)):
        new = disk_revolve_schedule(152, c, w, r)
        old = ref.disk_revolve_schedule(152, c, w, r)
        assert (new.actions, new.slots) == (old.actions, old.slots)
        assert disk_revolve_cost(152, c, w, r) == ref.disk_revolve_cost(152, c, w, r)
