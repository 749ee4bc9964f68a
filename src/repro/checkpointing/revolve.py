"""Optimal binomial checkpointing (Revolve, Griewank & Walther Alg. 799).

For a homogeneous chain of ``l`` steps reversed with ``c`` checkpoint
slots (slot count *includes* the slot holding a segment's input), the
minimal number of pure forward executions ``P(l, c)`` satisfies

    P(1, c) = 0
    P(l, 1) = l(l-1)/2
    P(l, c) = min_{1<=m<l} [ m + P(l-m, c-1) + P(m, c) ]

with the closed form (Griewank & Walther 2000, Prop. 1): with
``β(c, r) = C(c+r, c)`` and ``r`` the unique repetition number such that
``β(c, r-1) < l <= β(c, r)``,

    P(l, c) = r·l − β(c+1, r−1).

Every adjoint step additionally replays its own forward (Revolve
semantics), so a chain always executes at least one forward per step;
:func:`extra_forwards` subtracts the mandatory single sweep, giving the
*recomputation overhead* that the paper's recompute factor ρ prices:
``time = (l + extra)·u_f + l·u_b`` against the store-all baseline
``l·u_f + l·u_b``.  With ``u_f = u_b`` the paper's budget "2ρl total
computations" is exactly ``extra ≤ 2l(ρ−1)``.

:class:`RevolveDP` is Revolve as the uniform-cost instance of the
slot-count segment DP (:class:`~.dynprog.SlotSegmentDP`): costs come
from the closed form and first splits from the DP table, and schedules
are emitted by :meth:`~.dynprog.SegmentDP.emit`, the package's one
reversal emitter.  :func:`revolve_schedule` materializes the optimal
schedule as an executable :class:`~.schedule.Schedule`; the simulator
verifies that its measured forward count equals ``P(l, c)`` (see tests).
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import PlanningError, ScheduleError
from .actions import Action, adjoint, advance, restore, snapshot
from .dynprog import SlotSegmentDP
from .schedule import Schedule

__all__ = [
    "beta",
    "repetition_number",
    "opt_forwards",
    "opt_forwards_dp",
    "extra_forwards",
    "min_slots_for_extra",
    "RevolveDP",
    "revolve_schedule",
    "store_all_schedule",
]


def beta(c: int, r: int) -> int:
    """β(c, r) = C(c+r, c): max chain length reversible with c slots and
    at most r repetitions per step."""
    if c < 0 or r < 0:
        return 0
    return math.comb(c + r, c)


def repetition_number(l: int, c: int) -> int:
    """Minimal r with l <= β(c, r).

    β(c, r) is strictly increasing in r, so the answer is found by
    doubling r until β(c, r) >= l and binary-searching the bracket —
    O(log r) β evaluations instead of the naive O(r) scan, which matters
    for deep-chain sweeps at small c (r grows like l at c = 1).
    """
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if beta(c, 0) >= l:
        return 0
    hi = 1
    while beta(c, hi) < l:
        hi *= 2
    lo = hi // 2  # beta(c, lo) < l: either hi's predecessor bracket or 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if beta(c, mid) < l:
            lo = mid
        else:
            hi = mid
    return hi


def opt_forwards(l: int, c: int) -> int:
    """Closed-form minimal pure forward executions P(l, c)."""
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if l == 1:
        return 0
    r = repetition_number(l, c)
    return r * l - beta(c + 1, r - 1)


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


def opt_forwards_dp(l: int, c: int) -> int:
    """DP value of P(l, c) — cross-checks the closed form in tests."""
    if l < 1 or c < 1:
        raise ScheduleError("require l >= 1 and c >= 1")
    c_eff = min(c, max(1, l - 1))  # extra slots beyond l-1 are useless
    cost, _ = _dp_tables(l, c_eff)
    return cost[c_eff][l]


def extra_forwards(l: int, c: int) -> int:
    """Recomputation overhead beyond the mandatory single forward sweep.

    Zero when ``c >= l - 1`` (store-all); ``(l-1)(l-2)/2`` when ``c = 1``.
    """
    if l == 1:
        return 0
    if c >= l - 1:
        return 0
    return opt_forwards(l, c) - (l - 1)


def min_slots_for_extra(l: int, max_extra: float) -> int:
    """Smallest slot count whose recompute overhead is <= ``max_extra``.

    ``extra_forwards`` is non-increasing in c, so binary search applies.
    Raises :class:`~repro.errors.PlanningError` for negative or NaN budgets.
    """
    if not max_extra >= 0:  # NaN fails too
        raise PlanningError(f"extra-forwards budget must be >= 0, got {max_extra}")
    lo, hi = 1, max(1, l - 1)
    if extra_forwards(l, lo) <= max_extra:
        return lo
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if extra_forwards(l, mid) <= max_extra:
            hi = mid
        else:
            lo = mid
    return hi


class RevolveDP(SlotSegmentDP):
    """Revolve as the uniform-cost instance of the slot-count segment DP.

    Every step costs ``unit``, so a segment's optimal cost is the closed
    form ``P(j − i, budget) · unit`` and its first checkpoint is read from
    the split table of :func:`_dp_tables` (built on the first lookup) —
    no memoized segment search runs.  :meth:`~.dynprog.SegmentDP.emit`
    materializes the schedule; ``c`` sizes the split table.
    """

    def __init__(self, l: int, c: int, unit: float = 1.0) -> None:
        super().__init__((unit,) * l)
        self.unit = unit
        self.c_eff = min(c, max(1, l - 1))
        self._split: list[list[int]] | None = None

    def cost(self, i: int, j: int, budget: int) -> float:
        # The closed form saturates at j − i − 1, so ``budget`` needs no cap.
        return opt_forwards(j - i, budget) * self.unit if j > i else 0.0

    def split(self, i: int, j: int, budget: int) -> int:
        length = j - i
        if length < 2 or budget < 2:
            return 0
        if length == 2:
            return i + 1  # the only possible split
        if self._split is None:
            self._split = _dp_tables(self.l, self.c_eff)[1]
        return i + self._split[min(budget, self.c_eff, length - 1)][length]

    def solve(self, i: int, j: int, budget: int) -> tuple[float, int]:
        return self.cost(i, j, budget), self.split(i, j, budget)


def revolve_schedule(l: int, c: int) -> Schedule:
    """Generate the optimal Revolve schedule for ``l`` steps, ``c`` slots.

    The measured pure-forward count of the returned schedule equals
    :func:`opt_forwards`\\ ``(l, c)`` and its peak slot usage is ``<= c``.
    """
    if l < 1 or c < 1:
        raise ScheduleError("require l >= 1 and c >= 1")
    c_eff = min(c, max(1, l - 1))
    actions: list[Action] = [snapshot(0)]  # cursor holds x_0 at start
    RevolveDP(l, c).emit(actions, 0, l, c_eff, 0, list(range(1, c_eff)))
    return Schedule(strategy="revolve", length=l, slots=c_eff, actions=tuple(actions))


def store_all_schedule(l: int) -> Schedule:
    """The no-recomputation schedule: snapshot every prefix activation.

    Uses ``l`` slots (x_0 .. x_{l-1}); the final activation is consumed
    directly from the cursor.  Pure forward count is ``l - 1`` — the
    mandatory sweep — so :func:`extra_forwards` measures 0 against it.
    """
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    actions: list[Action] = [snapshot(0)]
    for i in range(1, l):
        actions.append(advance(i))
        actions.append(snapshot(i))
    actions.append(adjoint(l))
    for b in range(l - 1, 0, -1):
        actions.append(restore(b - 1))
        actions.append(adjoint(b))
    return Schedule(strategy="store_all", length=l, slots=l, actions=tuple(actions))
