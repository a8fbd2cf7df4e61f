"""Memory templating campaigns (paper Sections II-C and III-A).

A real Row Hammer exploit has two phases: *templating* (find PA triples
``(aggr1, victim, aggr2)`` that actually flip, by hammering and
scanning) and *exploitation* (massage the target data onto a templated
victim and re-hammer the recorded aggressors).  The attack only works
if the adjacency discovered during templating still holds at
exploitation time.

Against a static PA-to-DA mapping the template stays valid forever --
that is what makes the classic attacks (privilege escalation via page-
table spraying etc.) practical.  SHADOW's row-shuffle re-randomizes the
mapping continuously, so a template decays: by the time the attacker
exploits it, the recorded aggressors no longer flank the recorded
victim.  This module measures exactly that decay.

The campaign drives the *mechanism level* (translation + disturbance
model + per-RFM shuffle), not the cycle-level MC, so thousands of
hammer rounds run in reasonable time; the cycle-accurate path is
exercised by :mod:`tests/test_integration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import ShadowConfig
from repro.core.shadow import Shadow
from repro.dram.device import BankAddress, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR5_4800
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation
from repro.rowhammer.model import DisturbanceModel, HammerConfig

_ADDR = BankAddress(0, 0, 0)


@dataclass(frozen=True)
class Template:
    """One templated flip: hammer these PAs, this PA's data flips."""

    aggressor_pas: Tuple[int, int]
    victim_pa: int


@dataclass
class TemplatingReport:
    """Outcome of a templating + exploitation campaign."""

    templates_found: int
    exploit_attempts: int
    exploit_successes: int
    hammer_rounds: int

    @property
    def reuse_rate(self) -> float:
        """Fraction of templates that still flipped at exploit time."""
        if self.exploit_attempts == 0:
            return 0.0
        return self.exploit_successes / self.exploit_attempts


class _Substrate:
    """Translation + disturbance + the mitigation's per-RFM work."""

    def __init__(self, layout: SubarrayLayout, hcnt: int,
                 blast_radius: int, mitigation: Mitigation):
        self.layout = layout
        self.hcnt = hcnt
        self.model = DisturbanceModel(
            HammerConfig(hcnt=hcnt, blast_radius=blast_radius,
                         layout=layout),
            record_all_flips=True)
        self.mitigation = mitigation
        mitigation.bind(DramGeometry(channels=1, ranks_per_channel=1,
                                     banks_per_rank=1, layout=layout),
                        DDR5_4800)
        self._acts_since_rfm = 0

    def translate(self, pa_row: int) -> int:
        return self.mitigation.translate(_ADDR, pa_row)

    def occupant(self, da_row: int) -> Optional[int]:
        """PA currently stored in a DA slot (None for empty slots)."""
        for pa_row in range(self.layout.mc_rows_per_bank):
            if self.translate(pa_row) == da_row:
                return pa_row
        return None

    def activate(self, pa_row: int) -> None:
        da = self.translate(pa_row)
        out = self.mitigation.on_activate(_ADDR, pa_row, da, 0)
        self.model.on_activate(_ADDR, da, 0, out)
        if self.mitigation.uses_rfm:
            self._acts_since_rfm += 1
            if self._acts_since_rfm >= self.mitigation.raaimt:
                self._acts_since_rfm = 0
                self.model.on_rfm_outcome(
                    _ADDR, self.mitigation.on_rfm(_ADDR, 0), 0)

    def hammer_round(self, aggressors: Tuple[int, int],
                     acts: int) -> List[int]:
        """Hammer the pair; returns newly flipped *PA* rows."""
        before = len(self.model.flips)
        for i in range(acts):
            self.activate(aggressors[i % 2])
        flipped_pas = []
        for flip in self.model.flips[before:]:
            pa = self.occupant(flip.da_row)
            if pa is not None:
                flipped_pas.append(pa)
        return flipped_pas


@dataclass
class TemplatingCampaign:
    """Template with double-sided pairs, then try to exploit.

    ``shadow=False`` models any static-mapping defenseless device;
    ``shadow=True`` interposes a real SHADOW mitigation.
    """

    layout: SubarrayLayout = field(
        default_factory=lambda: SubarrayLayout(subarrays_per_bank=2,
                                               rows_per_subarray=64))
    hcnt: int = 64
    raaimt: int = 16
    blast_radius: int = 1
    acts_per_round: int = 256
    shadow: bool = False
    seed: int = 1

    def _substrate(self) -> _Substrate:
        mitigation = NoMitigation()
        if self.shadow:
            mitigation = Shadow(ShadowConfig(
                raaimt=self.raaimt, rng_kind="system", rng_seed=self.seed))
        return _Substrate(self.layout, self.hcnt, self.blast_radius,
                          mitigation)

    def template_phase(self, substrate: _Substrate,
                       victims: List[int]) -> List[Template]:
        templates = []
        for victim in victims:
            pair = (victim - 1, victim + 1)
            flipped = substrate.hammer_round(pair, self.acts_per_round)
            if victim in flipped:
                templates.append(Template(pair, victim))
        return templates

    def exploit_phase(self, substrate: _Substrate,
                      templates: List[Template]) -> int:
        """Re-hammer each template; count victims that flip again."""
        successes = 0
        for template in templates:
            flipped = substrate.hammer_round(template.aggressor_pas,
                                             self.acts_per_round)
            if template.victim_pa in flipped:
                successes += 1
        return successes

    def run(self) -> TemplatingReport:
        substrate = self._substrate()
        sub = 0
        lo = self.layout.pa_row(sub, 2)
        hi = self.layout.pa_row(sub, self.layout.rows_per_subarray - 3)
        victims = list(range(lo, hi, 4))
        templates = self.template_phase(substrate, victims)
        # The data the attacker cares about gets massaged in *after*
        # templating; the disturbance state resets (fresh refresh
        # window), but SHADOW's accumulated remapping persists.
        substrate.model.reset()
        successes = self.exploit_phase(substrate, templates)
        rounds = len(victims) + len(templates)
        return TemplatingReport(
            templates_found=len(templates),
            exploit_attempts=len(templates),
            exploit_successes=successes,
            hammer_rounds=rounds,
        )
