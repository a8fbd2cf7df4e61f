"""DRAM device substrate.

A command-level model of a DDR4/DDR5 main-memory system: JEDEC timing
parameter sets, per-bank timing state machines, rank-level activation
constraints (tRRD/tFAW), channel bus occupancy, subarray geometry, and the
auto-refresh machinery (tREFI/tRFC/tREFW) including the DDR5 refresh
management (RFM) interface that SHADOW builds on.

The model is *timing-faithful at command granularity*: every protocol
effect the SHADOW paper measures (longer tRCD, tRFM bank blocking, extra
refreshes, channel-blocking row-swaps) is representable here.
"""

from repro.dram.commands import Command, CommandType
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.refresh import RefreshTracker
from repro.dram.sppr import SpprConfig, SpprState
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import (
    DDR4_2666,
    DDR5_4800,
    TimingParams,
    ns_to_cycles,
)

__all__ = [
    "BankAddress",
    "Command",
    "CommandType",
    "DDR4_2666",
    "DDR5_4800",
    "DramDevice",
    "DramGeometry",
    "RefreshTracker",
    "SpprConfig",
    "SpprState",
    "SubarrayLayout",
    "TimingParams",
    "ns_to_cycles",
]
