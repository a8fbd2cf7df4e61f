"""Memory controller substrate.

Implements the MC side of the paper's system model (Sections II-A/II-B):
requests addressed by channel/rank/bank/row/column, per-bank request
queues with FR-FCFS scheduling, auto-refresh issue, and
the DDR5 RFM interface (per-bank RAA activation counters, RAAIMT
threshold, RFM commands granting tRFM to the device).
"""

from repro.controller.address import MemoryLocation
from repro.controller.mc import MemoryController, McConfig
from repro.controller.request import MemoryRequest
from repro.controller.rfm import RaaCounterBank

__all__ = [
    "McConfig",
    "MemoryController",
    "MemoryLocation",
    "MemoryRequest",
    "RaaCounterBank",
]
