"""Self-time spans recorded from outside the program.

:class:`SpanRecorder` replaces public functions and methods of the
``repro`` modules with timing wrappers, keeps per-name self time, call
counts and work counters in memory, and puts every original back on
:meth:`SpanRecorder.uninstall`.  Nothing under ``src/`` is edited: a
wrapper is installed where callers look the name up (a module global,
or a method on the class), which is the only place a later change to
the program cannot bypass without the benchmark noticing.

A span's self time is its duration minus the time covered by the spans
it called, so the self times of one step add up to the step's traced
wall time minus whatever ran outside every span.
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Per-name self time, calls and counters of wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # Child-time accumulators of the open spans; the bottom entry
        # collects time spent in top-level spans.
        self._stack: list[float] = [0.0]
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner: object, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a wrapper timing it as span ``name``.

        ``on_return(recorder, args, result)`` runs after each call,
        outside the timed interval, to update work counters.
        """
        had = attr in vars(owner)
        orig = getattr(owner, attr)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[name] += dt - child
                calls[name] += 1
            if on_return is not None:
                on_return(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig, had))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patched:
            owner, attr, orig, had = self._patched.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def self_ms(self, *names: str) -> float:
        """Summed self time of ``names``, in milliseconds."""
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names)
