"""MINT: a minimalist in-DRAM tracker (Qureshi, Qazi & Jaleel, MICRO 2024).

Composition: :class:`~repro.mitigations.trackers.MintSampler` x
:class:`~repro.mitigations.compose.RfmTrrSampled`, reset per RFM -- the
poster child of the tracker/policy decomposition: the *entire* scheme
is a new single-entry tracker dropped onto the existing RFM-hosted TRR
action.

MINT stores exactly one row per bank.  At the start of each mitigation
window (the RAAIMT activations between two RFMs) it draws a uniform
slot and captures the row of exactly that activation; the RFM then
refreshes the captured row's neighbourhood and the sampler re-arms
(``reset="rfm"``).  Every ACT in the window has the same
``1/RAAIMT`` selection probability -- the distribution PARFM needs a
RAAIMT-deep history buffer to produce -- so MINT inherits PARFM's
secure-RAAIMT derivation while shrinking tracker storage from
``O(RAAIMT)`` to a single entry (the paper's point: the minimalist
tracker already matches the probabilistic protection bound).
"""

from __future__ import annotations

from typing import Optional

from repro.mitigations.compose import ComposedMitigation, RfmTrrSampled
from repro.mitigations.parfm import parfm_raaimt
from repro.mitigations.trackers import MintSampler
from repro.utils.rng import RandomSource, SystemRng


def mint_raaimt(hcnt: int, blast_radius: int = 1) -> int:
    """MINT's secure RAAIMT for the 1%/year budget.

    Identical to PARFM's: pre-committing the sample slot instead of
    drawing from a window-deep history leaves the per-window selection
    distribution (uniform over RAAIMT activations) unchanged, so the
    evasion analysis and therefore the secure RAAIMT carry over.
    """
    return parfm_raaimt(hcnt, blast_radius)


class Mint(ComposedMitigation):
    """Single-entry window sampler + RFM-hosted TRR."""

    def __init__(self, raaimt: int, blast_radius: int = 1,
                 rng: Optional[RandomSource] = None):
        if raaimt <= 0:
            raise ValueError("raaimt must be positive")
        self._raaimt = raaimt
        self.blast_radius = blast_radius
        self.rng = rng or SystemRng(0x317A)
        super().__init__(
            policy=RfmTrrSampled(blast_radius),
            reset="rfm",
            name=f"MINT-r{raaimt}-b{blast_radius}",
        )

    def make_tracker(self) -> MintSampler:
        return MintSampler(self._raaimt, self.rng)

    @classmethod
    def for_hcnt(cls, hcnt: int, blast_radius: int = 1,
                 rng: Optional[RandomSource] = None) -> "Mint":
        return cls(mint_raaimt(hcnt, blast_radius), blast_radius, rng)

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self._raaimt

    def sampler_entries(self) -> int:
        """Tracker storage per bank, in entries.  The headline number:
        one, versus PARFM's RAAIMT-deep history."""
        return 1
