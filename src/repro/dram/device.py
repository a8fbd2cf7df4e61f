"""The composed DRAM device: channels -> ranks -> banks -> subarrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.dram.bank import Bank, BankStats
from repro.dram.channel import ChannelTiming
from repro.dram.rank import RankTiming
from repro.dram.subarray import Subarray, SubarrayLayout
from repro.dram.timing import TimingParams


@dataclass(frozen=True, order=True)
class BankAddress:
    """Fully-qualified bank coordinate."""

    channel: int
    rank: int
    bank: int

    def __post_init__(self) -> None:
        # Addresses key the hottest dicts in the simulator (mitigation
        # trackers, disturbance counters); the generated dataclass hash
        # rebuilds a field tuple on every lookup, so pin it once.
        object.__setattr__(
            self, "_hash", hash((self.channel, self.rank, self.bank)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class DramGeometry:
    """Static organisation of the memory system (paper Figure 1)."""

    channels: int = 4
    ranks_per_channel: int = 2
    banks_per_rank: int = 16
    bank_groups: int = 4            # DDR4 x8: 4 groups of 4 banks
    layout: SubarrayLayout = SubarrayLayout()
    columns_per_row: int = 128      # cache lines per row (8 KB row / 64 B)

    def __post_init__(self) -> None:
        for attr in ("channels", "ranks_per_channel", "banks_per_rank",
                     "columns_per_row", "bank_groups"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.banks_per_rank % self.effective_bank_groups:
            raise ValueError(
                "banks_per_rank must divide evenly into bank_groups")

    @property
    def effective_bank_groups(self) -> int:
        """Small test geometries may have fewer banks than the nominal
        group count; the effective group count never exceeds the banks."""
        return min(self.bank_groups, self.banks_per_rank)

    def bank_group_of(self, bank: int) -> int:
        """The bank group a bank index belongs to (low bits select the
        group, so consecutive banks alternate groups -- the layout that
        lets streaming traffic use the short tCCD_S spacing)."""
        if not 0 <= bank < self.banks_per_rank:
            raise ValueError(f"bank {bank} outside geometry")
        return bank % self.effective_bank_groups

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def rows_per_bank(self) -> int:
        """MC-addressable rows per bank."""
        return self.layout.mc_rows_per_bank

    def bank_addresses(self) -> Iterator[BankAddress]:
        for ch in range(self.channels):
            for rk in range(self.ranks_per_channel):
                for bk in range(self.banks_per_rank):
                    yield BankAddress(ch, rk, bk)

    def validate(self, addr: BankAddress) -> None:
        if not (0 <= addr.channel < self.channels
                and 0 <= addr.rank < self.ranks_per_channel
                and 0 <= addr.bank < self.banks_per_rank):
            raise ValueError(f"bank address {addr} outside geometry")


class DramDevice:
    """Runtime state of the whole memory system.

    The device owns per-bank timing FSMs, per-rank ACT trackers, per-channel
    bus trackers and per-(bank, subarray) occupancy state.  The memory
    controller (:mod:`repro.controller.mc`) drives it; mitigations reach in
    through the controller, never directly.
    """

    def __init__(self, geometry: DramGeometry, timing: TimingParams):
        self.geometry = geometry
        self.timing = timing
        self.banks: Dict[BankAddress, Bank] = {
            addr: Bank(timing) for addr in geometry.bank_addresses()
        }
        self.ranks: Dict[tuple, RankTiming] = {
            (ch, rk): RankTiming(timing)
            for ch in range(geometry.channels)
            for rk in range(geometry.ranks_per_channel)
        }
        self.channels: List[ChannelTiming] = [
            ChannelTiming() for _ in range(geometry.channels)
        ]
        # Subarray occupancy is lazily created: most experiments only touch
        # a few banks and the full cross-product would be large.
        self._subarrays: Dict[tuple, Subarray] = {}

    def bank(self, addr: BankAddress) -> Bank:
        self.geometry.validate(addr)
        return self.banks[addr]

    def rank(self, addr: BankAddress) -> RankTiming:
        self.geometry.validate(addr)
        return self.ranks[(addr.channel, addr.rank)]

    def channel(self, channel: int) -> ChannelTiming:
        if not 0 <= channel < self.geometry.channels:
            raise ValueError(f"channel {channel} outside geometry")
        return self.channels[channel]

    def subarray(self, addr: BankAddress, subarray_index: int) -> Subarray:
        """The occupancy state of one subarray (lazily instantiated)."""
        self.geometry.validate(addr)
        key = (addr, subarray_index)
        if key not in self._subarrays:
            self._subarrays[key] = Subarray(self.geometry.layout, subarray_index)
        return self._subarrays[key]

    def aggregate_stats(self) -> BankStats:
        """Sum of all per-bank command counters."""
        total = BankStats()
        for bank in self.banks.values():
            total.merge(bank.stats)
        return total
