"""DRAM coordinates of a memory request.

The MC splits a physical address into a (channel, rank, bank, row,
column) tuple (paper Section II-B).  The workload generators emit these
coordinates directly, so the simulator never holds a physical address:
a :class:`MemoryLocation` is what a request carries from the core to
the controller.

Note the distinction the paper leans on: the PA-side split is *static*
and reverse-engineerable by an attacker (Section II-B); SHADOW's
PA-to-DA remapping inside the device is what changes dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import BankAddress


@dataclass(frozen=True, order=True)
class MemoryLocation:
    """A fully-decoded memory coordinate."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def bank_address(self) -> BankAddress:
        return BankAddress(self.channel, self.rank, self.bank)
