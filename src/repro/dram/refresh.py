"""Auto-refresh bookkeeping.

The MC sends REF every tREFI; over one tREFW every row is refreshed once
(paper Section II-A).  Each REF refreshes the next segment of rows in
every bank of the rank (rolling pointer).  The Row Hammer fault model
needs to know *which* rows a given REF recharged, so the tracker exposes
the refreshed DA row range per REF.

The tracker also implements the paper's tREFI-reduction emulation
(Equation 1) used to mimic RFM commands on real DDR4 hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dram.timing import TimingParams


@dataclass
class RefreshTracker:
    """Rolling refresh pointer for one rank."""

    timing: TimingParams
    rows_per_bank: int

    def __post_init__(self) -> None:
        if self.rows_per_bank <= 0:
            raise ValueError("rows_per_bank must be positive")
        self._refs_per_window = self.timing.refreshes_per_window
        # Rows refreshed per REF command (ceiling so a full window always
        # covers every row at least once).
        self._rows_per_ref = -(-self.rows_per_bank // self._refs_per_window)
        self._pointer = 0
        self.next_due = self.timing.tREFI
        self.refs_issued = 0

    def is_due(self, cycle: int) -> bool:
        return cycle >= self.next_due

    def record_ref(self, cycle: int) -> Tuple[int, int]:
        """Account one REF; returns the refreshed DA row range ``[lo, hi)``.

        ``hi`` may exceed ``rows_per_bank``; callers wrap modulo the row
        count (the returned range is pre-wrap to keep it a single span).
        """
        lo = self._pointer
        hi = lo + self._rows_per_ref
        self._pointer = hi % self.rows_per_bank
        self.refs_issued += 1
        self.next_due += self.timing.tREFI
        if self.next_due <= cycle:
            # The MC fell behind (e.g. long blocking); re-anchor so refreshes
            # do not pile up unboundedly.  JEDEC allows postponing a bounded
            # number of REFs; the fault model conservatively keeps charging
            # disturbance while refreshes are late.
            self.next_due = cycle + self.timing.tREFI
        return lo, hi


def emulated_trefi(timing: TimingParams, acts_per_window: int,
                   raaimt: int) -> int:
    """The paper's Equation 1: tREFI' emulating RFM via extra refreshes.

    ``tREFI' = tREFI * tRFC / (tRFC + tRFM * N_RFM / N_REF)`` where
    ``N_RFM`` is the number of RFM commands a workload would trigger per
    tREFW (measured ACTs / RAAIMT) and ``N_REF`` the number of normal
    refreshes per tREFW.
    """
    if raaimt <= 0:
        raise ValueError("RAAIMT must be positive")
    if acts_per_window < 0:
        raise ValueError("acts_per_window must be non-negative")
    n_ref = timing.refreshes_per_window
    n_rfm = acts_per_window / raaimt
    scale = timing.tRFC / (timing.tRFC + timing.tRFM * n_rfm / n_ref)
    trefi_prime = int(timing.tREFI * scale)
    return max(1, trefi_prime)
