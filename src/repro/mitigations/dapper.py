"""DAPPER-style performance-attack-resilient tracking (Woo & Nair, 2025).

Composition: :class:`~repro.mitigations.trackers.ResilientMisraGries` x
:class:`~repro.mitigations.compose.RfmTrrHottest`, decayed per REF
window.

Tracker-based defenses open a second attack surface: an adversary who
cannot flip bits may still *thrash the tracker* -- spray activations so
eviction noise promotes cold rows into mitigation targets, turning the
defense itself into a performance attack (spurious TRRs, swaps, or
throttles against victim applications).  DAPPER hardens the tracker
against that adversary; this module reproduces the idea in this
codebase's terms as a resilient Misra-Gries composed with the standard
RFM-hosted TRR action:

* mitigation decisions use the **provable lower bound**
  ``count - spill`` rather than the raw estimate, so table thrash
  (which inflates ``spill``) can never manufacture a hot row -- at
  worst it suppresses mitigations, which the deterministic security
  bound below already budgets for;
* the REF-window reset **halves** counters and spill instead of
  clearing, so an attacker cannot launder a hot row's history by
  straddling window boundaries.

Security is deterministic rather than probabilistic: with ``E`` table
entries and an RFM every ``RAAIMT`` activations, a row's unmitigated
true count is bounded by ``spill_max + RAAIMT`` where
``spill_max <= acts_per_tREFW / E`` (the Misra-Gries guarantee).  The
:mod:`repro.analysis.security` model checks that bound against the
blast-weighted ``H_cnt``; :func:`dapper_for_hcnt` sizes the table so it
holds across the paper's Table II range.
"""

from __future__ import annotations

from repro.core.config import secure_raaimt
from repro.mitigations.compose import ComposedMitigation, RfmTrrHottest
from repro.mitigations.mithril import _blast_derate
from repro.mitigations.trackers import ResilientMisraGries


def dapper_entries(hcnt: int) -> int:
    """Table sizing: entries scale inversely with ``H_cnt`` so the
    Misra-Gries spill bound (~2M worst-case ACTs per tREFW divided by
    the entry count) stays well under the threshold."""
    return min(4096, max(128, (1 << 21) // hcnt))


def dapper_raaimt(hcnt: int, blast_radius: int = 1) -> int:
    """Mitigation cadence: a quarter of SHADOW's secure RAAIMT (the
    deterministic hottest-first TRR wastes no mitigations, but each one
    covers a single neighbourhood), blast-derated like the other TRR
    schemes and floored at 8."""
    base = max(8, secure_raaimt(hcnt) // 4)
    return max(8, _blast_derate(base, blast_radius))


class Dapper(ComposedMitigation):
    """Resilient Misra-Gries + RFM-hosted TRR on the provable hottest."""

    def __init__(self, raaimt: int, table_entries: int,
                 blast_radius: int = 1):
        if raaimt <= 0:
            raise ValueError("raaimt must be positive")
        if table_entries <= 0:
            raise ValueError("table_entries must be positive")
        self._raaimt = raaimt
        self.table_entries = table_entries
        self.blast_radius = blast_radius
        super().__init__(
            policy=RfmTrrHottest(blast_radius),
            reset="ref-window",
            name=f"DAPPER-r{raaimt}-e{table_entries}-b{blast_radius}",
        )

    def make_tracker(self) -> ResilientMisraGries:
        return ResilientMisraGries(self.table_entries)

    @classmethod
    def for_hcnt(cls, hcnt: int, blast_radius: int = 1) -> "Dapper":
        return cls(dapper_raaimt(hcnt, blast_radius),
                   dapper_entries(hcnt), blast_radius)

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self._raaimt

    def table_kilobytes(self) -> float:
        """CAM footprint per bank, sized like Mithril's (18b row tag +
        22b counter per entry) plus one spill counter."""
        bits = self.table_entries * (18 + 22) + 22
        return bits / 8 / 1024


def dapper_for_hcnt(hcnt: int, blast_radius: int = 1) -> Dapper:
    """The default DAPPER configuration for a target ``H_cnt``."""
    return Dapper.for_hcnt(hcnt, blast_radius)
