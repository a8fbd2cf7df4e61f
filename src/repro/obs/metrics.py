"""Counters, gauges and log-scale histograms (`repro.obs`).

Two cost regimes, by construction:

* **enabled** -- a metric handle is a tiny ``__slots__`` object; updating
  it is one attribute add, and looking one up in a
  :class:`MetricRegistry` is ~one dict access (instrument once, hold the
  handle, update forever).  A site that updates once per simulated DRAM
  command writes the handle's fields inline rather than calling a
  method: the controller files each column command's latency into
  ``request.latency_cycles`` through :data:`bucket_of`, with no Python
  call;
* **disabled** -- there are no metric objects at all: every
  instrumentation site gates on a single pre-hoisted ``is None``/bool
  check, so a run without an :class:`~repro.obs.Observability` hub
  executes *zero* metric code.

Histograms are log-scale (power-of-two buckets via :data:`bucket_of`):
request latencies and queue depths span orders of magnitude, and a
constant-size bucket table keeps ``observe`` allocation-free.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]

#: The histogram bucket rule, stated once: an int's bucket is its bit
#: length, so bucket ``b`` holds ``[2**(b-1), 2**b - 1]`` and bucket 0
#: holds exactly 0.  ``int.bit_length`` ignores the sign, so a negative
#: value is filed in the bucket of its magnitude.  A builtin, so an
#: inlined update site pays no Python-level call for it.
bucket_of = int.bit_length


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Log-scale (power-of-two bucket) histogram of non-negative values.

    Bucket ``b`` holds values whose :data:`bucket_of` is ``b``, i.e. the
    range ``[2**(b-1), 2**b - 1]`` (bucket 0 holds exactly 0).
    """

    __slots__ = ("name", "buckets", "count", "total", "max")

    #: Initial bucket-table size; covers values up to 2**67 - 1 without
    #: ever growing (``observe`` extends it on demand beyond that).
    _INITIAL_BUCKETS = 68

    def __init__(self, name: str):
        self.name = name
        self.buckets = [0] * self._INITIAL_BUCKETS
        self.count = 0
        self.total = 0
        self.max = 0

    def observe(self, value: int) -> None:
        b = bucket_of(int(value))
        try:
            self.buckets[b] += 1
        except IndexError:
            self.buckets.extend([0] * (b + 1 - len(self.buckets)))
            self.buckets[b] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @staticmethod
    def bucket_bounds(b: int):
        """Inclusive ``(lo, hi)`` value range of bucket ``b``."""
        if b == 0:
            return (0, 0)
        return (1 << (b - 1), (1 << b) - 1)

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else 0.0,
            "buckets": {
                f"{self.bucket_bounds(b)[0]}..{self.bucket_bounds(b)[1]}":
                    n for b, n in enumerate(self.buckets) if n
            },
        }


class MetricRegistry:
    """Named metric store: get-or-create handles, one dict lookup each."""

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """All current values, JSON-able, sorted by name."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}
