"""shadow-repro: reproduction of SHADOW (HPCA 2023).

SHADOW (Shuffling Aggressor DRAM Rows) is an in-DRAM Row Hammer mitigation
that dynamically randomizes the physical-address-to-DRAM-address mapping by
shuffling rows inside each subarray upon every JEDEC RFM command.

The package is organised bottom-up:

* :mod:`repro.utils` -- RNG sources (seeded system RNG, LFSR), result
  cache, logging.
* :mod:`repro.dram` -- DRAM device substrate (subarray/bank/rank/channel
  timing state machines, JEDEC parameter sets).
* :mod:`repro.controller` -- memory controller (FR-FCFS scheduling, RAA
  counters and the RFM interface).
* :mod:`repro.rowhammer` -- disturbance fault model and attack library.
* :mod:`repro.mitigations` -- baselines (PARFM, Mithril, BlockHammer, RRS,
  Graphene, DRR, ...).
* :mod:`repro.core` -- SHADOW itself (remapping row, row-shuffle,
  incremental refresh, subarray pairing, controller).
* :mod:`repro.analysis` -- closed-form security analysis, circuit timing,
  area and power models.
* :mod:`repro.workloads` -- synthetic workload/trace generators and the
  paper's multi-programmed mixes.
* :mod:`repro.sim` -- the full-system simulation harness and metrics.
* :mod:`repro.experiments` -- one driver per paper table/figure.
"""

from repro.version import __version__

# Headline API re-exports: the objects a downstream user reaches for
# first.  Subsystem access still goes through the subpackages.
from repro.core import Shadow, ShadowConfig
from repro.dram import DDR4_2666, DDR5_4800, DramGeometry
from repro.rowhammer import DisturbanceModel, HammerConfig
from repro.sim import System, SystemConfig

__all__ = [
    "DDR4_2666",
    "DDR5_4800",
    "DisturbanceModel",
    "DramGeometry",
    "HammerConfig",
    "Shadow",
    "ShadowConfig",
    "System",
    "SystemConfig",
    "__version__",
]
