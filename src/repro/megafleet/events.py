"""Day-bucketed event queue: the "event-driven" half of the engine.

``simulate_fleet`` touches every node every day.  At 10^6 devices
over long horizons most of that work is nothing happening — a device
with a 120-day MTBF crashes ~0.25 times in a month.  The megafleet
engine instead accrues harvest in closed form between events and only
wakes up on days where something changes state:

* ``CRASH``   — one or more devices fail (payload: their indices);
* ``FEDERATION`` — a model-averaging round reprices ``borrowed``;
* ``REPORT``  — an aggregate trajectory sample is due.

Events on the same day fire in that order, matching ``simulate_fleet``'s
within-day sequence (crashes are applied before the federation round,
and stats are taken at end of day).  A quiet day never enters the heap,
so the per-day cost is O(devices touched by events), not O(n_devices).

Payloads are ndarray index batches; pushing the same (day, kind) twice
concatenates, and :meth:`DayEventQueue.pop` hands back one merged,
sorted index array per firing.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["CRASH", "FEDERATION", "REPORT", "DayEventQueue"]

#: within-day firing order (lower fires first)
CRASH = 0
FEDERATION = 1
REPORT = 2

_EMPTY = np.zeros(0, dtype=np.int64)


class DayEventQueue:
    """Min-heap of (day, kind) with ndarray payload buckets."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []
        self._buckets: dict[tuple[int, int], list[np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, day: int, kind: int, payload: np.ndarray | None = None) -> None:
        """Schedule ``kind`` on ``day``; repeated pushes merge payloads."""
        slot = (int(day), int(kind))
        bucket = self._buckets.get(slot)
        if bucket is None:
            self._buckets[slot] = bucket = []
            heapq.heappush(self._heap, slot)
        if payload is not None and payload.size:
            bucket.append(payload)

    def pop(self) -> tuple[int, int, np.ndarray]:
        """Earliest (day, kind, merged sorted payload indices)."""
        slot = heapq.heappop(self._heap)
        parts = self._buckets.pop(slot)
        if not parts:
            payload = _EMPTY
        elif len(parts) == 1:
            payload = np.sort(parts[0])
        else:
            payload = np.sort(np.concatenate(parts))
        return slot[0], slot[1], payload

    def push_crashes(self, days: np.ndarray, idx: np.ndarray, horizon: int) -> None:
        """Schedule per-device crash events, dropping any past ``horizon``.

        ``days[i]`` is the crash day of device ``idx[i]``; devices whose
        next crash falls after the simulated horizon simply never fire.
        """
        live = days <= horizon
        if not np.any(live):
            return
        days, idx = days[live], idx[live]
        for day in np.unique(days):
            self.push(int(day), CRASH, idx[days == day])
