"""Monte Carlo adversarial-pattern analysis (paper Section VII-A).

Runs a real mitigation -- SHADOW's remapping rows, per-RFM shuffle and
incremental refresh, or any tracker-based scheme -- against the Section
VII-A adversaries and observes the disturbance model directly, with no
closed-form approximations.  This validates the *shape* of the Appendix
XI math (which conservatively over-estimates flips) and supports
scaled-down parameters so empirical flip rates are measurable in
reasonable time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dram.device import BankAddress, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR5_4800
from repro.mitigations.base import Mitigation
from repro.rowhammer.model import DisturbanceModel, HammerConfig

_ADDR = BankAddress(0, 0, 0)


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of one simulated attack campaign."""

    flipped: bool
    intervals_run: int
    total_acts: int
    first_flip_interval: Optional[int]
    max_disturbance: float


def simulate_defense(attacker, layout: SubarrayLayout,
                     mitigation: Mitigation, hcnt: int, intervals: int,
                     blast_radius: int = 3,
                     acts_per_interval: Optional[int] = None,
                     ref_every: Optional[int] = None) -> MonteCarloResult:
    """Run ``intervals`` RFM intervals of an attack against a mitigation.

    ``attacker`` provides ``interval_rows(i, acts)`` (the Section VII-A
    adversaries).  The defense is any
    :class:`~repro.mitigations.base.Mitigation`, bound to one bank of
    ``layout``: :class:`~repro.core.shadow.Shadow` (remapping rows,
    per-RFM shuffle, incremental refresh), a tracker x policy
    composition, or :class:`~repro.mitigations.none.NoMitigation`.  Its
    translations, TRRs, swaps, copies and RFM-hosted refreshes are
    applied to one :class:`~repro.rowhammer.model.DisturbanceModel`.
    Each interval has ``acts_per_interval`` ACTs (default: the scheme's
    RAAIMT, or 64 for a scheme without RFM) and ends with one RFM when
    the scheme uses RFM; then the scheme's :meth:`check_invariants`
    runs.  Cycle time is abstracted to interval indices -- disturbance
    accounting only needs ordering, not wall-clock -- and every
    ``ref_every`` intervals a tREFW boundary refreshes every DA row and
    calls ``on_ref``.

    Two fidelity caveats follow from that abstraction: throttle-based
    schemes (BlockHammer) defend by *stretching wall-clock time* so
    ``H_cnt`` cannot be reached within tREFW, which an interval-indexed
    model cannot express -- evaluate those through the full controller;
    and the model's ``blast_radius`` should match the mitigation's TRR
    radius, else distance>radius victims accumulate disturbance no TRR
    clears.
    """
    if intervals <= 0:
        raise ValueError("intervals must be positive")
    geometry = DramGeometry(channels=1, ranks_per_channel=1,
                            banks_per_rank=1, layout=layout)
    mitigation.bind(geometry, DDR5_4800)
    model = DisturbanceModel(
        HammerConfig(hcnt=hcnt, blast_radius=blast_radius, layout=layout))

    acts = acts_per_interval
    if acts is None:
        acts = mitigation.raaimt if mitigation.uses_rfm else 64
    rows = layout.da_rows_per_bank

    first_flip = None
    for interval in range(intervals):
        for pa_row in attacker.interval_rows(interval, acts):
            da = mitigation.translate(_ADDR, pa_row)
            out = mitigation.on_activate(_ADDR, pa_row, da, interval)
            model.on_activate(_ADDR, da, interval, out)
        if model.flipped and first_flip is None:
            first_flip = interval
            break
        if mitigation.uses_rfm:
            model.on_rfm_outcome(
                _ADDR, mitigation.on_rfm(_ADDR, interval), interval)
        if ref_every and (interval + 1) % ref_every == 0:
            model.on_refresh((_ADDR,), 0, rows, cycle=interval)
            mitigation.on_ref((_ADDR,), 0, rows, interval)
        mitigation.check_invariants()

    return MonteCarloResult(
        flipped=model.flipped,
        intervals_run=interval + 1,
        total_acts=model.total_acts,
        first_flip_interval=first_flip,
        max_disturbance=model.max_disturbance(),
    )


def flip_rate(make_attacker: Callable[[int], object],
              make_mitigation: Callable[[int], Mitigation],
              layout: SubarrayLayout, hcnt: int, intervals: int,
              trials: int, blast_radius: int = 3, seed: int = 1,
              acts_per_interval: Optional[int] = None) -> float:
    """Fraction of ``trials`` campaigns that produced a bit-flip.

    Trial ``t`` runs :func:`simulate_defense` with the attacker
    ``make_attacker(seed * 7919 + t)`` against a fresh
    ``make_mitigation(seed * 104729 + t)``; a randomized scheme seeds
    its RNG from that argument.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    flips = 0
    for t in range(trials):
        result = simulate_defense(
            make_attacker(seed * 7919 + t), layout,
            make_mitigation(seed * 104729 + t), hcnt, intervals,
            blast_radius=blast_radius, acts_per_interval=acts_per_interval)
        flips += int(result.flipped)
    return flips / trials
