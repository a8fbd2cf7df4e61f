"""Observability: metrics, structured event tracing, snapshot sampling.

The hub object is :class:`Observability`: build one, hand it to
:class:`~repro.sim.system.System` (``obs=``), and after ``run()`` read
``obs.summary`` / ``obs.snapshots`` or open the written trace in
``ui.perfetto.dev``.

Cost contract (the reason this package exists as a separate layer):

* **off (the default, ``obs=None``)** -- every instrumentation site in
  the simulator is gated on a single pre-hoisted ``is None`` or bool
  check; no metric objects are touched, no events are built.  The
  bench-smoke regression gate pins this path.
* **metrics on** -- counter updates are one attribute add on a held
  handle; registry lookups are ~one dict access.  Every engine worker
  runs this way, so the per-command site (the request-latency
  histogram, one update per column command) bumps the handle's fields
  inline and makes no Python-level call.
* **tracing on** -- each command/mitigation event builds one small dict
  and hands it to the sink; sinks never block the simulation (JSONL
  streams, Chrome buffers until :meth:`Observability.close`).

Example::

    from repro.obs import Observability
    obs = Observability.to_chrome("run.trace.json", sample_interval=10_000)
    result = System(profiles, mitigation, config=cfg, obs=obs).run()
    obs.close()            # flushes the Chrome JSON
    print(obs.summary)     # row-hit rate, cache hits, RAA pressure, ...
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.obs.sampler import SnapshotSampler, collect_summary
from repro.obs.trace import (
    ChromeTraceSink,
    JsonlTraceSink,
    MemoryTraceSink,
    TraceSink,
    read_jsonl,
)


class Observability:
    """One run's observability configuration and collected state.

    ``metrics=True`` attaches a :class:`MetricRegistry`; ``sink`` is an
    optional :class:`TraceSink`; ``sample_interval`` (cycles, 0 = off)
    enables the periodic :class:`SnapshotSampler` in the system event
    loop.  The hub is single-run: build a fresh one per ``System``.
    """

    def __init__(self, metrics: bool = True,
                 sink: Optional[TraceSink] = None,
                 sample_interval: int = 0):
        if sample_interval < 0:
            raise ValueError("sample_interval must be >= 0")
        self.metrics: Optional[MetricRegistry] = \
            MetricRegistry() if metrics else None
        self.sink = sink
        self.sample_interval = sample_interval
        self.snapshots: List[Dict] = []
        self.summary: Optional[Dict] = None

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def to_chrome(cls, path, metrics: bool = True,
                  sample_interval: int = 0) -> "Observability":
        """Hub tracing to a Chrome/Perfetto trace-event file."""
        return cls(metrics=metrics, sink=ChromeTraceSink(path),
                   sample_interval=sample_interval)

    @classmethod
    def to_jsonl(cls, path, metrics: bool = True,
                 sample_interval: int = 0) -> "Observability":
        """Hub tracing to a JSON-lines event file."""
        return cls(metrics=metrics, sink=JsonlTraceSink(path),
                   sample_interval=sample_interval)

    @classmethod
    def in_memory(cls, metrics: bool = True,
                  sample_interval: int = 0) -> "Observability":
        """Hub tracing to an in-process :class:`MemoryTraceSink`."""
        return cls(metrics=metrics, sink=MemoryTraceSink(),
                   sample_interval=sample_interval)

    # -- lifecycle ----------------------------------------------------------------

    def bind(self, tck_ns: float) -> None:
        """Called by the system before the run: fixes the timebase."""
        if self.sink is not None:
            self.sink.set_timebase(tck_ns)

    def close(self) -> None:
        """Flush the trace sink (idempotent)."""
        if self.sink is not None:
            self.sink.close()


__all__ = [
    "ChromeTraceSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "MetricRegistry",
    "Observability",
    "SnapshotSampler",
    "TraceSink",
    "collect_summary",
    "read_jsonl",
]
