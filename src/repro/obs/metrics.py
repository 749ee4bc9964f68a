"""Named counters, gauges and histograms with one process-wide registry.

The codebase used to scatter its measurements across ad-hoc containers
(the live-byte meter's fields, per-run stats types, the schedule cache's
hit/miss integers).  :class:`Metrics` gives them one home:

* instruments are created on first use (``metrics.counter("x").inc()``)
  and are thread-safe;
* :func:`get_metrics` returns the shared default registry that the
  executor, trainer, schedule cache and simulators all write to;
* :func:`reset_metrics` (or ``Metrics.reset()``) zeroes every value
  while keeping the instruments registered — the semantics callers want
  between experiment repetitions or ``Trainer.fit`` calls.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
]


class Counter:
    """Monotonically increasing count (until reset)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-written value (bytes held, slots occupied, current loss)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Streaming summary (count/sum/min/max/mean/percentiles) of values.

    Percentiles come from a bounded sample buffer: the first
    ``SAMPLE_CAP`` observations are kept verbatim, after which new
    values overwrite a rotating slot — a cheap deterministic reservoir
    that keeps memory flat on unbounded streams while staying exact for
    the common case (every histogram in this codebase observes far
    fewer than the cap per run).
    """

    SAMPLE_CAP = 4096

    __slots__ = ("name", "_lock", "count", "total", "_min", "_max", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            if len(self._samples) < self.SAMPLE_CAP:
                self._samples.append(v)
            else:
                self._samples[self.count % self.SAMPLE_CAP] = v
            self.count += 1
            self.total += v
            self._min = v if self._min is None else min(self._min, v)
            self._max = v if self._max is None else max(self._max, v)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) by linear interpolation.

        Exact while ``count <= SAMPLE_CAP``; an approximation over the
        retained sample window beyond that.  0.0 when empty.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be in [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = (len(ordered) - 1) * q / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self._min = None
            self._max = None
            self._samples.clear()


class Metrics:
    """Registry of named instruments, created on first use.

    A name belongs to exactly one instrument kind; asking for the same
    name as a different kind raises ``ValueError`` (it is almost always
    an instrumentation bug).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name)
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} is a {type(inst).__name__}, not a {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """All current values, JSON-ready, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: dict[str, dict[str, float]] = {}
        for name, inst in items:
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"kind": "gauge", "value": inst.value}
            else:
                out[name] = {
                    "kind": "histogram",
                    "count": inst.count,
                    "sum": inst.total,
                    "min": inst.min,
                    "max": inst.max,
                    "mean": inst.mean,
                    "p50": inst.percentile(50),
                    "p95": inst.percentile(95),
                }
        return out

    def reset(self) -> None:
        """Zero every instrument, keeping registrations."""
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            inst.reset()

    def clear(self) -> None:
        """Forget every instrument entirely."""
        with self._lock:
            self._instruments.clear()


_default = Metrics()
_default_lock = threading.Lock()


def get_metrics() -> Metrics:
    """The process-wide default registry."""
    return _default


def set_metrics(metrics: Metrics) -> Metrics:
    """Swap the process-wide registry; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = metrics
    return previous


def reset_metrics() -> None:
    """Zero every instrument in the default registry."""
    _default.reset()
