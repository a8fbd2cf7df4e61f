"""Full-system simulation harness.

Glues cores (:mod:`repro.sim.core_model`) to the memory controller,
DRAM device, mitigation and fault model (:mod:`repro.sim.system`) and
computes the paper's metrics (:mod:`repro.sim.metrics`).  Experiments
that compare schemes run through :func:`repro.experiments.run_spec` and
the :class:`~repro.experiments.Engine`, which plan, deduplicate and
cache the alone and shared runs weighted speedup needs.
"""

from repro.sim.core_model import ThreadState
from repro.sim.metrics import (
    normalized_performance,
    throughput,
    weighted_speedup,
)
from repro.sim.system import System, SystemConfig

__all__ = [
    "System",
    "SystemConfig",
    "ThreadState",
    "normalized_performance",
    "throughput",
    "weighted_speedup",
]
