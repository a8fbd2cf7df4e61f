"""Graphene: Misra-Gries-tracked TRR at the memory controller
(Park et al., MICRO 2020).

Composition: :class:`~repro.mitigations.trackers.MisraGries` x
:class:`~repro.mitigations.compose.ThresholdTrr`, reset per REF window.

Each bank has a Misra-Gries heavy-hitters table; whenever a row's
estimated count crosses the TRR threshold, the controller immediately
refreshes the row's neighbours and resets the entry.  Unlike the
RFM-hosted schemes the mitigation cost lands synchronously on the bank
(one tRC per victim refresh, modelled as an ACT penalty).

Used in the reproduction's ablations and as the tracker reference the
paper's related-work section discusses; not part of the headline
figures.
"""

from __future__ import annotations

from typing import Optional

from repro.mitigations.compose import ComposedMitigation, ThresholdTrr
from repro.mitigations.trackers import MisraGries
from repro.rowhammer.model import blast_weight_sum


class Graphene(ComposedMitigation):
    """MC-side Misra-Gries TRR."""

    def __init__(self, hcnt: int, blast_radius: int = 1,
                 table_entries: Optional[int] = None):
        if hcnt <= 4:
            raise ValueError("hcnt too small to derive a TRR threshold")
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.blast_radius = blast_radius
        # TRR threshold: a victim accumulates at most W_sum weighted
        # disturbance per tracked-aggressor count, so trigger with margin.
        self.threshold = max(
            1, int(hcnt / (2 * blast_weight_sum(self.blast_radius))))
        # Misra-Gries guarantee needs one entry per threshold-sized slice
        # of the worst-case ACTs in a refresh window; Graphene sizes the
        # table as acts_per_trefw / threshold.  We default to that bound
        # for a tRC-limited bank (resolved at bind, see below).
        self.table_entries = table_entries
        super().__init__(
            policy=ThresholdTrr(self.threshold, self.blast_radius),
            reset="ref-window",
            name=f"Graphene-h{hcnt}",
        )

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        if self.table_entries is None:
            acts_per_window = timing.tREFW // timing.tRC
            self.table_entries = max(16, acts_per_window // self.threshold)

    def make_tracker(self) -> MisraGries:
        return MisraGries(self.table_entries)
