"""Revolve's own reversal emitter and the joint planner's two inner
solvers, frozen as a test oracle.

``repro.checkpointing.revolve`` used to emit its schedules with a
recursion of its own (``_emit_reverse`` over a ``_SplitFn`` table
lookup), and ``repro.checkpointing.joint`` picked between two wrapper
classes (``_InnerRevolve`` / ``_InnerSegmentDP``) for its in-RAM segment
reversals.  Revolve is now ``RevolveDP``, the closed-form instance of the
slot-count segment DP, so ``SegmentDP.emit`` is the only reversal
emitter.  The old code is frozen verbatim below (commit f642bc0) so
``tests/test_ckpt_revolve_reference.py`` and
``tests/multilevel_reference.py`` keep checking the new emitter against
it: the same actions, strategy and slot budget, and the same
``joint_cost`` to the last bit.
"""

from __future__ import annotations

from functools import lru_cache

from repro.checkpointing.actions import (
    Action,
    adjoint,
    advance,
    compressed_slot,
    free,
    restore,
    snapshot,
    tier_slot,
)
from repro.checkpointing.chainspec import ChainSpec
from repro.checkpointing.dynprog import SlotSegmentDP
from repro.checkpointing.joint import (
    _TOL,
    JointObjective,
    UnitCostObjective,
    _tier_store,
    _tier_zipped,
)
from repro.checkpointing.revolve import opt_forwards
from repro.checkpointing.schedule import Schedule
from repro.errors import ScheduleError

__all__ = ["revolve_schedule", "joint_schedule"]


@lru_cache(maxsize=None)
def _dp_tables(l_max: int, c_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bottom-up DP: cost[c][l] and argmin split point m[c][l].

    cost[c][l] uses 1-based c in 1..c_max and l in 0..l_max; split[c][l]
    is 0 where no split applies (l <= 1 or c == 1).
    """
    INF = float("inf")
    cost = [[0] * (l_max + 1) for _ in range(c_max + 1)]
    split = [[0] * (l_max + 1) for _ in range(c_max + 1)]
    for l in range(l_max + 1):
        cost[1][l] = l * (l - 1) // 2
    for c in range(2, c_max + 1):
        for l in range(2, l_max + 1):
            best = INF
            best_m = 0
            for m in range(1, l):
                val = m + cost[c - 1][l - m] + cost[c][m]
                if val < best:
                    best = val
                    best_m = m
            cost[c][l] = int(best)
            split[c][l] = best_m
    return cost, split


def _emit_reverse(
    actions: list[Action],
    base: int,
    length: int,
    base_slot: int,
    pool: list[int],
    split_for: "_SplitFn",
) -> None:
    """Emit actions reversing steps ``base+1 .. base+length``.

    ``x_base`` is stored in ``base_slot``; ``pool`` holds free slot ids.
    Tail-iterates on the left segment to bound recursion depth by the
    slot count rather than the chain length.
    """
    while True:
        if length == 0:
            return
        if length == 1:
            actions.append(restore(base_slot))
            actions.append(adjoint(base + 1))
            return
        if not pool:
            # Single-slot quadratic reversal of this segment.
            for b in range(length, 0, -1):
                actions.append(restore(base_slot))
                if b > 1:
                    actions.append(advance(base + b - 1))
                actions.append(adjoint(base + b))
            return
        avail = 1 + len(pool)
        m = split_for(length, avail)
        actions.append(restore(base_slot))
        actions.append(advance(base + m))
        s = pool.pop()
        actions.append(snapshot(s))
        _emit_reverse(actions, base + m, length - m, s, pool, split_for)
        actions.append(free(s))
        pool.append(s)
        length = m


class _SplitFn:
    """Optimal split-point lookup backed by the DP tables."""

    def __init__(self, l: int, c: int) -> None:
        c_eff = min(c, max(1, l - 1))
        self._cost, self._split = _dp_tables(l, c_eff)
        self._c_max = c_eff

    def __call__(self, length: int, avail: int) -> int:
        if length == 2:
            return 1  # the only possible split
        avail = min(avail, self._c_max, length - 1)
        m = self._split[avail][length]
        if m < 1:
            # avail == 1 is handled by the caller's no-pool branch; for
            # length 3+ with avail >= 2 the DP always records a split.
            raise ScheduleError(f"no split recorded for length={length}, avail={avail}")
        return m


def revolve_schedule(l: int, c: int) -> Schedule:
    """Generate the optimal Revolve schedule for ``l`` steps, ``c`` slots.

    The measured pure-forward count of the returned schedule equals
    :func:`opt_forwards`\\ ``(l, c)`` and its peak slot usage is ``<= c``.
    """
    if l < 1 or c < 1:
        raise ScheduleError("require l >= 1 and c >= 1")
    c_eff = min(c, max(1, l - 1))
    actions: list[Action] = []
    pool = list(range(c_eff))
    s0 = pool.pop(0)
    actions.append(snapshot(s0))  # cursor holds x_0 at start
    split_for = _SplitFn(l, c_eff)
    _emit_reverse(actions, base=0, length=l, base_slot=s0, pool=pool, split_for=split_for)
    return Schedule(strategy="revolve", length=l, slots=c_eff, actions=tuple(actions))


class _InnerRevolve:
    """Closed-form inner solver for uniform per-step objective cost."""

    def __init__(self, c: int, unit: float) -> None:
        self.c = c
        self.unit = unit

    def cost(self, i: int, j: int) -> float:
        return opt_forwards(j - i, self.c) * self.unit if j > i else 0.0

    def emit(self, actions: list[Action], i: int, j: int, split_for: _SplitFn) -> None:
        seg_len = j - i
        c_seg = min(self.c, max(1, seg_len - 1))
        pool = list(range(1, c_seg))
        _emit_reverse(actions, i, seg_len, 0, pool, split_for)


class _InnerSegmentDP:
    """Exact segment-DP inner solver for heterogeneous objective cost."""

    def __init__(self, costs: tuple[float, ...], c: int) -> None:
        self.dp = SlotSegmentDP(costs)
        self.c = c

    def cost(self, i: int, j: int) -> float:
        return self.dp.solve(i, j, self.c)[0] if j > i else 0.0

    def emit(self, actions: list[Action], i: int, j: int, split_for: None) -> None:
        pool = list(range(1, self.c))
        self.dp.emit(actions, i, j, self.c, 0, pool)


def _make_inner(spec: ChainSpec, c: int, objective: JointObjective):
    unit = objective.uniform_step
    if unit is not None:
        return _InnerRevolve(min(c, max(1, spec.length - 1)), unit)
    costs = tuple(objective.step_cost(k) for k in range(1, spec.length + 1))
    return _InnerSegmentDP(costs, c)


def _solve(spec: ChainSpec, c: int, objective: JointObjective):
    """Bottom-up outer DP; returns (cost, splits, inner solver)."""
    l = spec.length
    inner = _make_inner(spec, c, objective)
    tiers = objective.paged_tiers
    # table[(b, t)] = (cost of reversing [b, l) with x_b on tier t,
    #                  first further split m or 0, its tier or -1)
    table: dict[tuple[int, int], tuple[float, int, int]] = {}
    suffix_inner = [inner.cost(b, l) for b in range(l + 1)]
    for b in range(l - 1, -1, -1):
        for t in tiers:
            best, best_m, best_u = suffix_inner[b], 0, -1
            read_b = objective.read_cost(t, b)
            for m in range(b + 1, l):
                base = (
                    objective.advance_cost(b, m)
                    + read_b
                    + inner.cost(b, m)
                )
                for u in tiers:
                    val = base + objective.write_cost(u, m) + table[(m, u)][0]
                    if val < best - _TOL:
                        best, best_m, best_u = val, m, u
            table[(b, t)] = (best, best_m, best_u)

    best, t0 = suffix_inner[0], -1
    for t in tiers:
        val = objective.write_cost(t, 0) + table[(0, t)][0]
        if val < best - _TOL:
            best, t0 = val, t

    splits: list[tuple[int, int]] = []
    if t0 >= 0:
        b, t = 0, t0
        while True:
            splits.append((b, t))
            _, m, u = table[(b, t)]
            if m == 0:
                break
            b, t = m, u
    return best, tuple(splits), inner


def joint_schedule(
    spec: ChainSpec,
    c: int,
    objective: JointObjective | None = None,
    family: str = "joint_time",
) -> Schedule:
    """Executable schedule achieving :func:`joint_cost`.

    Paged checkpoints use the shared tier-aware slot alphabet
    (:func:`~repro.checkpointing.actions.tier_slot` — split ``i`` on
    tier ``t`` lives in slot ``t·stride + i``, compressed splits in the
    compressed band on top); RAM slots stay ``0 .. c-1`` with slot 0
    parking the active segment's base, exactly the disk-revolve layout.
    Executing it on a :class:`~repro.engine.tiered.TieredBackend` (or,
    for codec-armed objectives, a
    :class:`~repro.engine.compressed.CompressedBackend`) whose profiles
    match the objective reproduces the planned cost
    measurement-for-measurement.
    """
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if objective is None:
        objective = UnitCostObjective(spec)
    l = spec.length
    cost, splits, inner = _solve(spec, c, objective)
    label = f"{family}(c={c})"

    split_for = None
    if isinstance(inner, _InnerRevolve):
        if splits:
            bounds = [p for p, _ in splits]
            max_seg = max(
                e - b for b, e in zip(bounds, bounds[1:] + [l])
            )
        else:
            max_seg = l
        split_for = _SplitFn(max_seg, inner.c)

    actions: list[Action] = []
    if not splits:
        actions.append(snapshot(0))
        inner.emit(actions, 0, l, split_for)
        # The closed-form inner caps its pool at the useful slot count;
        # the segment-DP inner draws on the full budget (hetero_schedule's
        # convention), so the declared budget must match the emitter.
        c_eff = min(c, max(1, l - 1)) if split_for is not None else c
        return Schedule(strategy=label, length=l, slots=c_eff, actions=tuple(actions))

    positions = [p for p, _ in splits]
    seg_ends = positions[1:] + [l]
    # Lower DP tier codes to the shared slot alphabet: split i on tier t
    # lives in slot t·stride + i, pushed into the compressed band when
    # the planner chose the codec variant.
    paged_slots = [
        compressed_slot(tier_slot(_tier_store(t), i))
        if _tier_zipped(t)
        else tier_slot(_tier_store(t), i)
        for i, (_, t) in enumerate(splits)
    ]

    # Forward phase: page x_0 and every split point out.
    actions.append(snapshot(paged_slots[0]))
    for i in range(1, len(splits)):
        actions.append(advance(positions[i]))
        actions.append(snapshot(paged_slots[i]))

    # Backward phase, rightmost segment first; every segment but the
    # rightmost pays one paged read to bring its base back.  The base is
    # then parked in RAM slot 0 (free — same tier as the cursor) so the
    # in-RAM reversal can re-advance from it.
    for i in range(len(splits) - 1, -1, -1):
        base, end = positions[i], seg_ends[i]
        if i < len(splits) - 1:
            actions.append(restore(paged_slots[i]))
        actions.append(snapshot(0))
        inner.emit(actions, base, end, split_for)
        actions.append(free(0))
        actions.append(free(paged_slots[i]))

    return Schedule(
        strategy=label,
        length=l,
        slots=max(paged_slots) + 1,
        actions=tuple(actions),
    )

