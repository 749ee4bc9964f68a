"""Optimal checkpointing for *heterogeneous* chains — the paper's
"proposed improvements" direction, generalized.

Classic Revolve assumes every step has equal cost and every activation
equal size — true for the paper's idealized ``LinearResNet`` but not for a
real ResNet block chain, where early blocks have large activations and
late blocks large weights.  This module provides two exact dynamic
programs over segments ``[i, j)`` of a :class:`~.chainspec.ChainSpec`:

* :func:`opt_forwards_hetero` — per-step forward *costs* differ, all
  activations occupy one slot (slot-count budget ``c``); reduces exactly
  to Revolve on homogeneous chains (property-tested).
* :func:`opt_forwards_budget` — activation *sizes* differ and the budget
  is in bytes; sizes are conservatively quantized to ``levels`` integer
  units (ceiling), so a reported plan never exceeds the byte budget.

Both are thin parameterizations of one memoized core,
:class:`SegmentDP`, over the recurrence

    solve(i, j, b) = min( quad(i, j),
                          min_m [ adv(i, m) + solve(m, j, b − units(m))
                                            + solve(i, m, b) ] )

where the two families differ only in how a budget translates to *free
capacity* (:meth:`SegmentDP.free_units`) and what a snapshot at ``m``
*charges* against it (:meth:`SegmentDP.snapshot_units`).  The joint
rematerialization+paging planner (:mod:`repro.checkpointing.joint`)
instantiates the same core with objective-priced step costs for its
in-RAM segment reversals, and Revolve is its uniform-cost instance
(:class:`~repro.checkpointing.revolve.RevolveDP`, which answers
:meth:`SegmentDP.cost` / :meth:`SegmentDP.split` from the closed form
and split table instead of searching).

Both return optimal extra-forward cost and can materialize executable
schedules; :meth:`SegmentDP.emit` is the one reversal emitter every
planner in the package ends with.  Complexity is O(l³·c) /
O(l³·levels); intended for block chains (l ≲ 60), not the homogenized
152-step chains (use Revolve there).
"""

from __future__ import annotations

import math

from ..errors import PlanningError, ScheduleError
from .actions import Action, adjoint, advance, free, restore, snapshot
from .chainspec import ChainSpec
from .schedule import Schedule

__all__ = [
    "SegmentDP",
    "SlotSegmentDP",
    "opt_forwards_hetero",
    "hetero_schedule",
    "quantize_sizes",
    "opt_forwards_budget",
    "budget_schedule",
]

_INF = float("inf")


# ---------------------------------------------------------------------------
# The parameterized segment-DP core
# ---------------------------------------------------------------------------


class SegmentDP:
    """Memoized segment DP over per-step forward costs.

    Subclasses define the capacity model via :meth:`free_units` (how many
    snapshot units a budget leaves free inside a segment) and
    :meth:`snapshot_units` (what parking ``x_m`` charges).  ``solve``
    returns the optimal pure-advance cost and the argmin first checkpoint
    (:meth:`cost` and :meth:`split` ask for one half each);
    :meth:`emit` materializes the corresponding actions.
    """

    def __init__(self, fwd_cost: tuple[float, ...]) -> None:
        self.u = fwd_cost
        self.l = len(fwd_cost)
        # prefix[i] = cost of F_1..F_i
        self.prefix = [0.0]
        for ucost in fwd_cost:
            self.prefix.append(self.prefix[-1] + ucost)
        self._memo: dict[tuple[int, int, int], tuple[float, int]] = {}

    # -- capacity model (the only per-family hooks) ------------------------
    def free_units(self, budget: int) -> int:
        """Units available for snapshots strictly inside a segment."""
        raise NotImplementedError

    def snapshot_units(self, m: int) -> int:
        """Units a snapshot of ``x_m`` charges against the budget."""
        raise NotImplementedError

    def can_split(self, budget: int) -> bool:
        """Whether any interior checkpoint is even worth considering.

        A pure fast-path guard: families where a snapshot always costs at
        least one unit skip straight to the quadratic reversal when
        nothing is free (zero-size snapshots make it family-specific).
        """
        return True

    # -- shared scaffolding ------------------------------------------------
    def adv(self, i: int, j: int) -> float:
        """Cost of advancing from x_i to x_j."""
        return self.prefix[j] - self.prefix[i]

    def quad(self, i: int, j: int) -> float:
        """Pure-advance cost of the one-slot reversal of [i, j)."""
        # For b = j..i+1 we advance i -> b-1: sum_{b} (prefix[b-1]-prefix[i])
        total = 0.0
        for b in range(j, i, -1):
            total += self.adv(i, b - 1)
        return total

    def child_budget(self, budget: int, m: int) -> int:
        """Budget left for the right part after parking ``x_m``."""
        return budget - self.snapshot_units(m)

    def solve(self, i: int, j: int, budget: int) -> tuple[float, int]:
        """(min advance cost, best first-checkpoint m; 0 = no split).

        ``budget`` is interpreted through :meth:`free_units` — the
        segment input ``x_i`` is charged by the caller, never here.
        """
        if j - i <= 1:
            return 0.0, 0
        if not self.can_split(budget):
            return self.quad(i, j), 0
        key = (i, j, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        avail = self.free_units(budget)
        best, best_m = self.quad(i, j), 0
        for m in range(i + 1, j):
            units = self.snapshot_units(m)
            if units > avail:
                continue
            val = (
                self.adv(i, m)
                + self.solve(m, j, budget - units)[0]
                + self.solve(i, m, budget)[0]
            )
            if val < best - 1e-12:
                best, best_m = val, m
        self._memo[key] = (best, best_m)
        return best, best_m

    def cost(self, i: int, j: int, budget: int) -> float:
        """Optimal advance cost of reversing ``[i, j)`` (``solve``'s first half)."""
        return self.solve(i, j, budget)[0]

    def split(self, i: int, j: int, budget: int) -> int:
        """Optimal first checkpoint of ``[i, j)``; 0 = no split."""
        return self.solve(i, j, budget)[1]

    def emit(
        self,
        actions: list[Action],
        i: int,
        j: int,
        budget: int,
        base_slot: int,
        pool: list[int],
    ) -> None:
        """Emit the reversal of ``[i, j)`` with ``x_i`` in ``base_slot``.

        ``pool`` holds the free slot ids; tail-iterates on the left
        segment so recursion depth is bounded by the checkpoint count.
        """
        while True:
            if j - i == 0:
                return
            if j - i == 1:
                actions.append(restore(base_slot))
                actions.append(adjoint(i + 1))
                return
            m = self.split(i, j, budget)
            if m == 0 or not pool:
                for b in range(j, i, -1):
                    actions.append(restore(base_slot))
                    if b - 1 > i:
                        actions.append(advance(b - 1))
                    actions.append(adjoint(b))
                return
            actions.append(restore(base_slot))
            actions.append(advance(m))
            s = pool.pop()
            actions.append(snapshot(s))
            self.emit(actions, m, j, self.child_budget(budget, m), s, pool)
            actions.append(free(s))
            pool.append(s)
            j = m


class SlotSegmentDP(SegmentDP):
    """Slot-count capacity: every activation occupies exactly one slot.

    ``budget`` counts slots *including* the one holding the segment input
    (Revolve's ``P(l, c)`` convention), so a segment with budget ``c``
    has ``c − 1`` slots free for interior checkpoints.
    """

    def free_units(self, budget: int) -> int:
        return budget - 1

    def snapshot_units(self, m: int) -> int:
        return 1

    def can_split(self, budget: int) -> bool:
        return budget > 1


class _HeteroDP(SlotSegmentDP):
    """Heterogeneous step costs under a slot-count budget."""


class _BudgetDP(SegmentDP):
    """Heterogeneous activation sizes under a unit (quantized byte) budget.

    ``budget`` is the number of units free for snapshots inside the
    segment — the input's own units are charged by the caller.
    """

    def __init__(self, fwd_cost: tuple[float, ...], size_units: tuple[int, ...]) -> None:
        super().__init__(fwd_cost)
        self.sizes = size_units  # length l+1, x_0..x_l

    def free_units(self, budget: int) -> int:
        return budget

    def snapshot_units(self, m: int) -> int:
        return self.sizes[m]


# ---------------------------------------------------------------------------
# Heterogeneous costs, slot-count budget
# ---------------------------------------------------------------------------


def _hetero_dp(spec: ChainSpec) -> _HeteroDP:
    return _HeteroDP(spec.fwd_cost)


def opt_forwards_hetero(spec: ChainSpec, c: int) -> float:
    """Minimal pure-advance cost to reverse ``spec`` with ``c`` slots.

    Matches Revolve's ``P(l, c)`` (as cost) when the chain is homogeneous
    with unit step cost.
    """
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    return _hetero_dp(spec).solve(0, spec.length, c)[0]


def hetero_schedule(spec: ChainSpec, c: int) -> Schedule:
    """Optimal executable schedule for heterogeneous step costs."""
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    dp = _hetero_dp(spec)
    actions: list[Action] = []
    pool = list(range(1, c))
    actions.append(snapshot(0))
    dp.emit(actions, 0, spec.length, c, 0, pool)
    return Schedule(strategy="hetero_dp", length=spec.length, slots=c, actions=tuple(actions))


# ---------------------------------------------------------------------------
# Heterogeneous sizes, byte budget
# ---------------------------------------------------------------------------


def quantize_sizes(act_bytes: tuple[int, ...], levels: int = 64) -> tuple[tuple[int, ...], int]:
    """Quantize byte sizes to integer units (ceiling — conservative).

    Returns (units, bytes_per_unit).  A plan feasible in units is feasible
    in bytes because every size is rounded *up*.
    """
    if levels < 2:
        raise PlanningError("quantization levels must be >= 2")
    biggest = max(act_bytes)
    if biggest == 0:
        return tuple(0 for _ in act_bytes), 1
    unit = max(1, math.ceil(biggest / levels))
    return tuple(math.ceil(b / unit) for b in act_bytes), unit


def opt_forwards_budget(
    spec: ChainSpec, budget_bytes: int, levels: int = 64
) -> tuple[float, int]:
    """Minimal pure-advance cost under a checkpoint *byte* budget.

    The chain input ``x_0`` is charged against the budget first (it must
    stay resident).  Returns ``(cost, bytes_per_unit)``; raises
    :class:`~repro.errors.PlanningError` when even ``x_0`` does not fit.
    """
    units, per_unit = quantize_sizes(spec.act_bytes, levels)
    free_units = budget_bytes // per_unit - units[0]
    if free_units < 0:
        raise PlanningError(
            f"budget {budget_bytes} B cannot hold the chain input "
            f"({spec.act_bytes[0]} B)"
        )
    dp = _BudgetDP(spec.fwd_cost, units)
    return dp.solve(0, spec.length, free_units)[0], per_unit


def budget_schedule(spec: ChainSpec, budget_bytes: int, levels: int = 64) -> Schedule:
    """Optimal executable schedule under a checkpoint byte budget.

    The returned schedule's simulated ``peak_slot_bytes`` never exceeds
    ``budget_bytes`` (quantization rounds sizes up).
    """
    units, per_unit = quantize_sizes(spec.act_bytes, levels)
    free_units = budget_bytes // per_unit - units[0]
    if free_units < 0:
        raise PlanningError(
            f"budget {budget_bytes} B cannot hold the chain input "
            f"({spec.act_bytes[0]} B)"
        )
    dp = _BudgetDP(spec.fwd_cost, units)
    actions: list[Action] = []
    pool = list(range(1, spec.length + 1))
    actions.append(snapshot(0))
    dp.emit(actions, 0, spec.length, free_units, 0, pool)
    return Schedule(
        strategy="budget_dp",
        length=spec.length,
        slots=spec.length + 1,
        actions=tuple(actions),
    )
