"""What a job leaves behind in its worker process.

* No job leaves cyclic garbage: once the caller drops a ``System``, its
  device, controller, mitigation and queued requests are freed by
  reference counting alone.  A reference cycle (say, a mitigation
  holding the controller's bound methods while the controller holds the
  mitigation) would keep every job's simulator alive until a full GC
  pass, and a sweep worker's memory would drift with it.
* The simulator imports neither numpy nor scipy: a worker that plans a
  figure and runs a job keeps neither in memory.
"""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.dram.device import DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.obs import Observability
from repro.sim import System, SystemConfig
from repro.spec import SCHEMES, FaultSpec
from repro.workloads.synthetic import random_stream_profile, stream_profile

GEOMETRY = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=4,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)

#: Every registry factory's required parameter, so each scheme builds;
#: ``filtered`` wraps SHADOW, whose listeners it forwards.
PARAMS = {"hcnt": 512, "raaimt": 16, "trcd": 23, "inner": "shadow"}

MODES = ("plain", "obs", "faults")


def build_system(scheme: str, mode: str) -> System:
    mitigation = SCHEMES.build(
        scheme, **SCHEMES.buildable_params(scheme, PARAMS))
    obs = (Observability.in_memory(sample_interval=500)
           if mode == "obs" else None)
    observer = FaultSpec(hcnt=64).build() if mode == "faults" else None
    config = SystemConfig(geometry=GEOMETRY, requests_per_thread=150,
                          seed=3)
    return System([random_stream_profile(), stream_profile()], mitigation,
                  observer=observer, config=config, obs=obs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES.names())
def test_a_dropped_job_leaves_no_cyclic_garbage(scheme, mode):
    gc.collect()
    gc.disable()
    try:
        build_system(scheme, mode).run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, (
        f"{scheme} ({mode}): {unreachable} objects were only freed by "
        f"the cyclic collector")


_LEAN_PROBE = """
import dataclasses
import sys

import repro.cli
from repro.experiments import fig8
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine

spec = fig8.spec("smoke")
# The first alone run of a Zipf-popularity app, shrunk to a few requests.
point = next(p for p in spec.points if p.metric == "st-relative"
             and p.workload.build()[0].zipf_alpha > 0)
point = dataclasses.replace(point, sim=dataclasses.replace(point.sim,
                                                           requests=40))
run_spec(dataclasses.replace(spec, points=(point,)),
         Engine(use_cache=False))
print(" ".join(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def test_planning_and_running_a_job_imports_no_numpy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _LEAN_PROBE], capture_output=True,
        text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == ""
