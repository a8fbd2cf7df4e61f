"""Mithril: CbS-tracked TRR over the RFM interface (Kim et al., HPCA 2022).

Composition: :class:`~repro.mitigations.trackers.CounterSummary` x
:class:`~repro.mitigations.compose.RfmTrrHottest`, never reset.

Each bank carries a Counter-based Summary (CbS) table; on every RFM the
device refreshes the neighbours of the hottest tracked row and settles
its counter to the table floor.  Mithril trades table size against
RAAIMT for a target ``H_cnt``:

* **Mithril-perf** -- a large (~10 KB/bank) CAM lets RFMs be rare: the
  table alone bounds the max accumulated count, so RAAIMT can sit well
  above SHADOW's.
* **Mithril-area** -- RAAIMT pinned at 32 (paper Section VII-C) with a
  smaller table (~5 KB/bank at 2K ``H_cnt``).

Blast handling mirrors PARFM: 2*radius victim refreshes per RFM and a
blast-derated RAAIMT.
"""

from __future__ import annotations

from repro.mitigations.compose import ComposedMitigation, RfmTrrHottest
from repro.mitigations.trackers import CounterSummary
from repro.rowhammer.model import blast_weight_sum


class Mithril(ComposedMitigation):
    """CbS tracker + RFM-hosted TRR."""

    def __init__(self, raaimt: int, table_entries: int,
                 blast_radius: int = 1, variant: str = "custom"):
        if raaimt <= 0:
            raise ValueError("raaimt must be positive")
        if table_entries <= 0:
            raise ValueError("table_entries must be positive")
        self._raaimt = raaimt
        self.table_entries = table_entries
        self.blast_radius = blast_radius
        self.variant = variant
        super().__init__(
            policy=RfmTrrHottest(blast_radius),
            name=(f"Mithril-{variant}-r{raaimt}-e{table_entries}"
                  f"-b{blast_radius}"),
        )

    def make_tracker(self) -> CounterSummary:
        return CounterSummary(self.table_entries)

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self._raaimt

    def table_kilobytes(self) -> float:
        """CAM footprint per bank: ~(row address + counter) per entry."""
        bits_per_entry = 18 + 22   # 18b row tag + 22b counter, as in the paper's sizing
        return self.table_entries * bits_per_entry / 8 / 1024


def _blast_derate(raaimt: int, blast_radius: int) -> int:
    scale = blast_weight_sum(1) / blast_weight_sum(max(1, blast_radius))
    return max(1, int(raaimt * scale))


def mithril_perf(hcnt: int, blast_radius: int = 1) -> Mithril:
    """Performance-optimized configuration (~10 KB CAM per bank)."""
    entries = 2048
    raaimt = _blast_derate(max(64, hcnt // 32), blast_radius)
    return Mithril(raaimt, entries, blast_radius, variant="perf")


def mithril_area(hcnt: int, blast_radius: int = 1) -> Mithril:
    """Area-optimized configuration: RAAIMT = 32 (paper Section VII-C).

    The table shrinks with the threshold down to ~5 KB per bank at 2K
    ``H_cnt`` (the paper's quoted worst case), always staying below the
    perf configuration's 10 KB.
    """
    entries = min(1024, max(128, hcnt // 2))
    raaimt = _blast_derate(32, blast_radius)
    return Mithril(max(raaimt, 8), entries, blast_radius, variant="area")
