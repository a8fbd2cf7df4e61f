"""PARFM: PARA hosted on the RFM interface (paper Section VII-C).

Composition: :class:`~repro.mitigations.trackers.RecentHistory` x
:class:`~repro.mitigations.compose.RfmTrrSampled`, never reset.

On every RFM command the device refreshes the neighbours of one row
sampled uniformly from the RAAIMT rows activated since the previous RFM.
It is the natural "what if we only had RFM + randomness" baseline: the
same trigger as SHADOW, but a TRR mitigating action instead of a
row-shuffle.

Protection scaling: a TRR action protects exactly one victim
neighbourhood, and under a blast radius ``B`` the victims charge
``W_sum(B)/W_sum(1)`` times faster, so PARFM's secure RAAIMT shrinks
both relative to SHADOW's (about 2x, since the shuffle destroys the
victim's *accumulated* disturbance while TRR merely resets it for one
neighbourhood) and with the radius.  :func:`parfm_raaimt` encodes that
derivation; the experiments use it to configure each ``H_cnt`` point for
the same 1%/year budget the paper uses.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import secure_raaimt
from repro.mitigations.compose import ComposedMitigation, RfmTrrSampled
from repro.mitigations.trackers import RecentHistory
from repro.rowhammer.model import blast_weight_sum
from repro.utils.rng import RandomSource, SystemRng

def parfm_raaimt(hcnt: int, blast_radius: int = 1) -> int:
    """PARFM's secure RAAIMT for the same 1%/year budget.

    Half of SHADOW's at the same threshold (TRR resets one
    neighbourhood's charge; the shuffle relocates the aggressor itself),
    further derated by the blast weight when the radius grows.
    """
    base = secure_raaimt(hcnt) // 2
    scale = blast_weight_sum(1) / blast_weight_sum(max(1, blast_radius))
    return max(1, int(base * scale))


class Parfm(ComposedMitigation):
    """PARA-with-RFM: TRR on a sampled recent aggressor at every RFM."""

    def __init__(self, raaimt: int, blast_radius: int = 1,
                 rng: Optional[RandomSource] = None):
        if raaimt <= 0:
            raise ValueError("raaimt must be positive")
        self._raaimt = raaimt
        self.blast_radius = blast_radius
        self.rng = rng or SystemRng(0x9A7F)
        super().__init__(
            policy=RfmTrrSampled(blast_radius),
            name=f"PARFM-r{raaimt}-b{blast_radius}",
        )

    def make_tracker(self) -> RecentHistory:
        return RecentHistory(self._raaimt, self.rng)

    @classmethod
    def for_hcnt(cls, hcnt: int, blast_radius: int = 1,
                 rng: Optional[RandomSource] = None) -> "Parfm":
        return cls(parfm_raaimt(hcnt, blast_radius), blast_radius, rng)

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self._raaimt
