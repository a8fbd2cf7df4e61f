"""The per-bank SHADOW controller (paper Section V-C).

Per bank, the controller:

* tracks the rows activated since the last RFM (at most RAAIMT of them;
  the hardware needs only the history ring the MC-side RAA counter
  already bounds);
* buffers random numbers from the per-chip RNG unit so the shuffle never
  waits on generation latency;
* owns each subarray's remapping row (physically stored in the *paired*
  subarray, but logically per-subarray state);
* on RFM: plans and applies the shuffle, steps the incremental refresh,
  and reports every physical row touch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.incremental import IncrementalRefresh
from repro.core.remapping import RemappingRow
from repro.core.shuffle import plan_shuffle
from repro.dram.subarray import SubarrayLayout
from repro.utils.rng import BufferedRng, RandomSource


class ShadowBankController:
    """SHADOW state and logic for one DRAM bank."""

    def __init__(self, layout: SubarrayLayout, raaimt: int,
                 rng: RandomSource, incremental_refresh: bool = True):
        if raaimt <= 0:
            raise ValueError("raaimt must be positive")
        if not layout.has_empty_row:
            raise ValueError("SHADOW requires the per-subarray empty row")
        self.layout = layout
        self.raaimt = raaimt
        # The controller pre-buffers random words (Section V-C).
        self.rng = BufferedRng(rng, word_width=32, depth=8)
        self._remapping: Dict[int, RemappingRow] = {}
        self._incremental: Dict[int, IncrementalRefresh] = {}
        self._incremental_enabled = incremental_refresh
        self._recent: List[Tuple[int, int]] = []   # (subarray, pa_offset)
        self.shuffles = 0
        self.incremental_refreshes = 0
        self._rows = layout.rows_per_subarray
        self._slots = layout.slots_per_subarray

    # -- per-subarray state ------------------------------------------------------

    def remapping_row(self, subarray: int) -> RemappingRow:
        row = self._remapping.get(subarray)
        if row is None:
            row = RemappingRow(self.layout.rows_per_subarray)
            self._remapping[subarray] = row
            self._incremental[subarray] = IncrementalRefresh(
                row, enabled=self._incremental_enabled)
        return row

    # -- the ACT path ---------------------------------------------------------------

    def translate(self, pa_row: int) -> int:
        """PA row -> bank-wide DA row via the remapping row."""
        subarray, offset = divmod(pa_row, self._rows)
        remap = self._remapping.get(subarray)
        if remap is None:
            remap = self.remapping_row(subarray)
        return subarray * self._slots + remap.pa_to_da[offset]

    def record_activation(self, pa_row: int) -> None:
        """Feed the aggressor-sampling history (bounded by RAAIMT)."""
        subarray = self.layout.subarray_of_pa(pa_row)
        offset = self.layout.pa_offset(pa_row)
        self._recent.append((subarray, offset))
        if len(self._recent) > self.raaimt:
            del self._recent[0]

    # -- the RFM path -----------------------------------------------------------------

    def run_rfm(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Execute one RFM's worth of SHADOW work.

        Returns ``(refreshed_da_rows, copies)`` in bank-wide DA row
        coordinates; the history buffer is drained (a new RFM interval
        begins).
        """
        plan = plan_shuffle(
            self._recent,
            rows_per_subarray=self.layout.rows_per_subarray,
            subarrays_per_bank=self.layout.subarrays_per_bank,
            rng=self.rng,
        )
        self._recent.clear()

        subarray = plan.subarray
        remap = self.remapping_row(subarray)

        refreshed: List[int] = []
        slot = self._incremental[subarray].step()
        if slot >= 0:
            refreshed.append(self.layout.da_row(subarray, slot))
            self.incremental_refreshes += 1

        slot_copies = remap.apply_shuffle(plan.aggr_pa_offset,
                                          plan.rand_pa_offset)
        copies = [
            (self.layout.da_row(subarray, src),
             self.layout.da_row(subarray, dst))
            for src, dst in slot_copies
        ]
        self.shuffles += 1
        return refreshed, copies

    # -- invariants ----------------------------------------------------------------------

    def check_invariants(self) -> None:
        for remap in self._remapping.values():
            remap.check_invariants()
