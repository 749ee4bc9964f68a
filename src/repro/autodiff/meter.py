"""Named live-byte high-water-mark meter.

Tracks named allocations (checkpoint slots, the cursor activation, the
flowing gradient) and records the peak of their sum.  The tensor
backend no longer uses it: its peaks come from the byte model the
simulator uses, :func:`repro.engine.program.byte_peaks`.  The meter
stays because perfbench times ``MemoryMeter.hold`` / ``release`` as its
``meter.*`` spans, and the frozen executor baselines in
``benchmarks/bench_engine.py`` and ``benchmarks/bench_obs_overhead.py``
meter their runs with it.

Releasing a name that is not held is an accounting leak on the caller's
side.  By default the meter counts it on the shared
``meter.unmatched_releases`` obs counter (so executor leaks are visible
in any exported trace); with ``strict=True`` it raises instead.
Re-holding a name replaces the allocation and is *not* an unmatched
release.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_metrics

__all__ = ["MemoryMeter"]

#: Shared counter name for release-without-hold accounting leaks.
UNMATCHED_RELEASES = "meter.unmatched_releases"


class MemoryMeter:
    """Names → byte counts with a running peak."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._live: dict[str, int] = {}
        self.peak_bytes: int = 0
        self.current_bytes: int = 0
        self.unmatched_releases: int = 0

    def _drop(self, name: str) -> bool:
        """Remove ``name`` if held; True when it was present."""
        n = self._live.pop(name, None)
        if n is None:
            return False
        self.current_bytes -= n
        return True

    def hold(self, name: str, array: np.ndarray | None) -> None:
        """Register (or replace) a named allocation."""
        self._drop(name)
        if array is not None:
            n = int(array.nbytes)
            self._live[name] = n
            self.current_bytes += n
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes

    def release(self, name: str) -> None:
        """Drop a named allocation.

        An absent ``name`` counts on :data:`UNMATCHED_RELEASES` (and on
        this meter's ``unmatched_releases``); with ``strict=True`` it
        also raises ``KeyError``.
        """
        if not self._drop(name):
            self.unmatched_releases += 1
            get_metrics().counter(UNMATCHED_RELEASES).inc()
            if self.strict:
                raise KeyError(f"release of unheld allocation {name!r}")

    def live(self) -> dict[str, int]:
        """Snapshot of current allocations."""
        return dict(self._live)
