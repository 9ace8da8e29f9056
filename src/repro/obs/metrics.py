"""Named counters, gauges and fixed-bucket histograms.

The registry is the numeric half of ``repro.obs``: where the tracer
answers "where did the wall-clock go?", the registry answers "what did
the distribution look like?".  Every metric is thread-safe under its
own lock, and a :class:`Histogram` keeps fixed cumulative-style
buckets *plus* exact min/max and total, so p50/p90/p99 come out as
bucket-interpolated estimates while the extremes stay exact — the
shape LITE-style cost accounting needs, at O(buckets) memory no
matter how many observations land.

:func:`repro.obs.export.registry_from_spans` folds a span log into a
registry for ``repro obs metrics``; there is no process-wide
registry.  The engine's ``Telemetry`` keeps no registry: it books a
question's counters and its :class:`Histogram` latency under one
lock of its own (:meth:`Histogram.observe_unlocked`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 0.1 ms .. 60 s, roughly log-spaced.
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing value (floats allowed for seconds)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "help": self.help, "value": self.value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Last-write-wins value, with a convenience high-water setter."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            self._value = max(self._value, value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "help": self.help, "value": self.value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are upper bucket edges; an implicit +Inf bucket catches
    the overflow.  ``quantile`` interpolates linearly inside the
    winning bucket (clamped by the exact min/max), which is accurate
    to a bucket width — plenty for latency tails, constant memory.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a sorted non-empty tuple")
        self.name = name
        self.help = help
        self.bounds = tuple(float(bound) for bound in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_unlocked(value)

    def observe_unlocked(self, value: float) -> None:
        """:meth:`observe` without this histogram's lock, for an owner
        that serialises every write under a lock of its own."""
        self._counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._max is not None else 0.0

    @property
    def mean(self) -> float:
        with self._lock:
            if self._count == 0:
                return 0.0
            return self._total / self._count

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket counts (last entry is the +Inf overflow)."""
        with self._lock:
            return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile; 0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen < rank or bucket_count == 0:
                    continue
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = (self.bounds[index]
                        if index < len(self.bounds)
                        else (self._max or low))
                fraction = 1.0 - (seen - rank) / bucket_count
                value = low + (high - low) * fraction
                return min(max(value, self._min or 0.0),
                           self._max or value)
            return self._max or 0.0  # pragma: no cover - defensive

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations (same bounds) to this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bounds")
        theirs = other.to_dict()
        with self._lock:
            self._counts = [mine + extra for mine, extra
                            in zip(self._counts, theirs["counts"])]
            self._count += theirs["count"]
            self._total += theirs["total"]
            if theirs["min"] is not None:
                self._min = (theirs["min"] if self._min is None
                             else min(self._min, theirs["min"]))
                self._max = (theirs["max"] if self._max is None
                             else max(self._max, theirs["max"]))

    def copy(self) -> "Histogram":
        """An independent histogram holding the same observations."""
        twin = Histogram(self.name, self.help, self.bounds)
        twin._load(self.to_dict())
        return twin

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind, "name": self.name, "help": self.help,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count, "total": self._total,
                "min": self._min, "max": self._max,
            }

    def _load(self, payload: dict) -> None:
        with self._lock:
            self._counts = [int(c) for c in payload["counts"]]
            self._count = int(payload["count"])
            self._total = float(payload["total"])
            self._min = payload.get("min")
            self._max = payload.get("max")

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._total = 0.0
            self._min = None
            self._max = None


class MetricsRegistry:
    """Get-or-create home for named metrics.

    Re-requesting a name returns the existing metric; requesting it as
    a different kind raises, so two subsystems can never silently
    split one metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "",
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, bounds), "histogram")

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, Counter | Gauge | Histogram]:
        with self._lock:
            return dict(self._metrics)

    def to_dict(self) -> dict:
        return {name: metric.to_dict()
                for name, metric in sorted(self.metrics().items())}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for name, entry in payload.items():
            kind = entry["kind"]
            if kind == "counter":
                registry.counter(name, entry.get("help", "")).add(
                    float(entry["value"]))
            elif kind == "gauge":
                registry.gauge(name, entry.get("help", "")).set(
                    float(entry["value"]))
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, entry.get("help", ""),
                    bounds=tuple(entry["bounds"]))
                histogram._load(entry)
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry

    def reset(self) -> None:
        for metric in self.metrics().values():
            metric._reset()
