"""Measurement probes the benchmark attaches from outside the program.

Nothing here edits the repository's code.  The probes go in through public
seams only:

* :func:`run_job` is the engine worker (``Engine(worker=...)``).  It wraps
  the default worker and records, per job, the wall interval it executed
  in.  That record goes to a spool file per process, so pooled workers can
  report back too.
* In ``plain`` mode (the timed runs) it samples the host's speed while the
  job runs (``hostspeed.py``).
* In ``spans`` mode it also times ``System(...)`` construction and
  ``System.run``.  It does so by handing the default worker a ``System``
  subclass for the duration of the job.
* In ``profile`` mode it runs the job under cProfile and groups self time
  by the ``src/repro/<layer>`` file each function lives in.  Mitigation,
  fault and observer hooks get no wrappers of their own: the controller
  picks its hot paths by the hooks' class-level identity, and a wrapper
  would change the path being measured.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

import repro.experiments.engine as engine_module
from repro.experiments.engine import Engine, Job
from repro.utils.cache import spec_digest

from perfbench.hostspeed import HostSpeed

#: The engine's own worker, which every probe mode wraps.
DEFAULT_WORKER = Engine(use_cache=False).worker

#: Controller methods that look for the next command to issue.
SCAN_FUNCS = frozenset({"_best_candidate", "_recompute", "_reindex",
                        "_refresh_candidate", "_rfm_candidate", "_idle_wake"})

#: Self-time layers, in report order.
LAYERS = ("experiments", "utils", "workloads", "sim", "controller.scan",
          "controller.issue", "controller.rfm", "dram", "mitigations",
          "faults", "obs", "other")

#: ``src/repro/<package>`` -> layer, for packages that are not a layer of
#: their own name.
_PACKAGE_LAYER = {"core": "mitigations", "rowhammer": "faults",
                  "spec": "experiments"}

_REPRO_FILE = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")


def layer_of(path: str, func: str) -> str:
    """The layer a profiled function belongs to, from its file and name."""
    match = _REPRO_FILE.search(path)
    if match is None:
        return "other"
    package, module = match.groups()
    if package == "controller":
        if module == "rfm":
            return "controller.rfm"
        return "controller.scan" if func in SCAN_FUNCS else "controller.issue"
    if package == "rowhammer" and module == "attacks":
        return "workloads"        # attack patterns feed trace generation
    layer = _PACKAGE_LAYER.get(package, package)
    return layer if layer in LAYERS else "other"


def profile_layers(profiler: cProfile.Profile) -> Dict:
    """Self seconds per layer, plus the number of scheduler scans."""
    self_s: Dict[str, float] = defaultdict(float)
    scans = 0
    for (path, _line, func), (_cc, calls, tottime, _cum, _callers) in \
            pstats.Stats(profiler).stats.items():
        self_s[layer_of(path, func)] += tottime
        if func == "_best_candidate" and path.endswith("mc.py"):
            scans += calls
    return {"self_s": dict(self_s), "scans": scans}


def _time_system(record: Dict) -> Callable[[], None]:
    """Swap in a ``System`` that times its construction and run."""
    base = engine_module.System

    class TimedSystem(base):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            record["materialize_s"] = time.perf_counter() - start

        def run(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return super().run(*args, **kwargs)
            finally:
                record["run_s"] = time.perf_counter() - start

    engine_module.System = TimedSystem
    return lambda: setattr(engine_module, "System", base)


def run_job(spool: str, mode: str, job: Job) -> Dict:
    """Engine worker: the default worker plus a spooled timing record.

    In ``plain`` mode the host's speed is sampled while the job runs; the
    sampler's own time is left out of ``execute_s``.
    """
    record: Dict = {"pid": os.getpid(), "job": spec_digest(job.spec)}
    restore = _time_system(record) if mode == "spans" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    speed = HostSpeed() if mode == "plain" else None
    if speed is not None:
        speed.start()
    start = time.monotonic()
    try:
        if profiler is not None:
            profiler.enable()
        payload = DEFAULT_WORKER(job)
    finally:
        if profiler is not None:
            profiler.disable()
        end = time.monotonic()
        if speed is not None:
            speed.stop()
        if restore is not None:
            restore()
    record.update(start=start, end=end, execute_s=end - start)
    if speed is not None:
        record["execute_s"] -= speed.spent_s
        speed.sample()          # every job contributes at least one sample
        record["speed"] = speed.state()
    if profiler is not None:
        record["profile"] = profile_layers(profiler)
    with open(os.path.join(spool, f"{os.getpid()}.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return payload


def read_spool(spool: str) -> List[Dict]:
    """Every job record the workers spooled, in no particular order."""
    records = []
    for path in sorted(Path(spool).glob("*.jsonl")):
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def time_cache(cache, spans: Dict[str, float]) -> None:
    """Time a ``ResultCache`` instance's ``get``/``put`` into ``spans``."""
    for name in ("get", "put"):
        method = getattr(cache, name)

        def timed(*args, _method=method, _key=f"cache_{name}_s", **kwargs):
            start = time.perf_counter()
            try:
                return _method(*args, **kwargs)
            finally:
                spans[_key] = spans.get(_key, 0.0) + (
                    time.perf_counter() - start)

        setattr(cache, name, timed)
