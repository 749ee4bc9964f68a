"""The two-level disk-revolve DP, frozen as a test oracle.

``repro.checkpointing`` used to plan disk-revolve with its own
recurrence (Aupy et al.'s ``DR``) in a module of its own.  Disk-revolve
is now a unit-price preset of the joint rematerialization+paging DP
(``repro.checkpointing.joint``).  The old recurrence and schedule
emitter are frozen verbatim below (commit c815ac9) so the differential
tests in ``tests/test_ckpt_multilevel_reference.py`` can keep checking
the preset against them: the same actions, slot budget, splits and cost.
Its Revolve emitter comes from the frozen copy in
``tests/revolve_reference.py``, not from ``src/``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.checkpointing.actions import (
    DISK_SLOT_BASE,
    Action,
    advance,
    free,
    restore,
    snapshot,
)
from repro.checkpointing.revolve import opt_forwards
from repro.checkpointing.schedule import Schedule
from repro.errors import ScheduleError

from .revolve_reference import _SplitFn, _emit_reverse, revolve_schedule

__all__ = ["disk_revolve_cost", "disk_revolve_splits", "disk_revolve_schedule"]


@lru_cache(maxsize=None)
def _dr(l: int, c_m: int, write_cost: float, read_cost: float) -> tuple[float, int]:
    """Inner DP: segment whose base is *already on disk*.

    Returns (optimal cost, first split j; 0 = finish in memory).
    """
    best, best_j = float(opt_forwards(l, c_m)), 0
    for j in range(1, l):
        right, _ = _dr(l - j, c_m, write_cost, read_cost)
        left = float(opt_forwards(j, c_m))
        val = j + write_cost + right + read_cost + left
        if val < best - 1e-12:
            best, best_j = val, j
    return best, best_j


@lru_cache(maxsize=None)
def _dr_top(l: int, c_m: int, write_cost: float, read_cost: float) -> tuple[float, int]:
    """Top-level DP: x_0 starts in the cursor, *not* on disk.

    Taking any split requires first parking x_0 on disk (one extra
    write), so that option is priced against pure in-memory Revolve.
    """
    best, best_j = float(opt_forwards(l, c_m)), 0
    for j in range(1, l):
        right, _ = _dr(l - j, c_m, write_cost, read_cost)
        left = float(opt_forwards(j, c_m))
        val = write_cost + j + write_cost + right + read_cost + left
        if val < best - 1e-12:
            best, best_j = val, j
    return best, best_j


def _validate(l: int, c_m: int, write_cost: float, read_cost: float) -> int:
    if l < 1 or c_m < 1:
        raise ScheduleError("require l >= 1 and c_m >= 1")
    if write_cost < 0 or read_cost < 0:
        raise ScheduleError("disk costs must be non-negative")
    return min(c_m, max(1, l - 1))


def disk_revolve_cost(l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0) -> float:
    """Optimal total cost: pure forwards + all disk I/O, in forward units.

    Includes the one-off ``x_0`` write whenever the plan uses the disk.
    """
    c_eff = _validate(l, c_m, write_cost, read_cost)
    return _dr_top(l, c_eff, float(write_cost), float(read_cost))[0]


def disk_revolve_splits(l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0) -> list[int]:
    """Disk-checkpoint positions (absolute indices), left to right."""
    c_eff = _validate(l, c_m, write_cost, read_cost)
    _, j = _dr_top(l, c_eff, float(write_cost), float(read_cost))
    if j == 0:
        return []
    splits = [j]
    base, remaining = j, l - j
    while remaining > 0:
        _, j = _dr(remaining, c_eff, float(write_cost), float(read_cost))
        if j == 0:
            break
        splits.append(base + j)
        base += j
        remaining -= j
    return splits


def disk_revolve_schedule(
    l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0
) -> Schedule:
    """Executable two-tier schedule achieving :func:`disk_revolve_cost`.

    Disk layout: slot ``DISK_SLOT_BASE + i`` holds the i-th disk-resident
    activation (``x_0`` plus the optimal split points).  Memory layout:
    slots ``0 .. c_m-1``, slot 0 holding the active segment's base.
    When the plan takes no splits this is exactly classic Revolve.
    """
    c_eff = _validate(l, c_m, write_cost, read_cost)
    splits = disk_revolve_splits(l, c_eff, write_cost, read_cost)
    if not splits:
        return revolve_schedule(l, c_eff)

    bounds = [0] + splits
    seg_ends = splits + [l]
    actions: list[Action] = []

    # Forward phase: write x_0 and every split point to disk.
    actions.append(snapshot(DISK_SLOT_BASE))
    for i, pos in enumerate(splits, start=1):
        actions.append(advance(pos))
        actions.append(snapshot(DISK_SLOT_BASE + i))

    max_seg = max(e - b for b, e in zip(bounds, seg_ends))
    split_for = _SplitFn(max_seg, c_eff)

    # Backward phase, rightmost segment first.  The rightmost base is
    # still in the cursor (no disk read); every other segment pays one
    # read to bring its base back.
    for i in range(len(bounds) - 1, -1, -1):
        base, end = bounds[i], seg_ends[i]
        seg_len = end - base
        disk_slot = DISK_SLOT_BASE + i
        if i < len(bounds) - 1:
            actions.append(restore(disk_slot))
        # Park the segment base in memory slot 0; remaining memory slots
        # form the Revolve pool (P(seg_len, c_m) convention: the input
        # occupies one of the c_m slots).
        actions.append(snapshot(0))
        c_seg = min(c_eff, max(1, seg_len - 1))
        pool = list(range(1, c_seg))
        _emit_reverse(actions, base, seg_len, 0, pool, split_for)
        # Release the segment base before the next segment re-parks its
        # own base in slot 0 — the VM rejects SNAPSHOT into an occupied
        # slot (FREE is costless, so the DP-cost identity is unchanged).
        actions.append(free(0))
        actions.append(free(disk_slot))

    return Schedule(
        strategy=f"disk_revolve(c_m={c_eff})",
        length=l,
        slots=DISK_SLOT_BASE + len(bounds),
        actions=tuple(actions),
    )
