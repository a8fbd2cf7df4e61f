"""Monte Carlo adversarial-pattern analysis (paper Section VII-A).

Runs the real SHADOW mechanism (remapping rows, per-RFM shuffle,
incremental refresh) against the Section VII-A adversaries and observes
the disturbance model directly -- no closed-form approximations.  This
validates the *shape* of the Appendix XI math (which conservatively
over-estimates flips) and supports scaled-down parameters so empirical
flip rates are measurable in reasonable time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.controller import ShadowBankController
from repro.dram.device import BankAddress
from repro.dram.subarray import SubarrayLayout
from repro.mitigations.base import RfmOutcome
from repro.rowhammer.model import DisturbanceModel, HammerConfig
from repro.utils.rng import RandomSource, SystemRng

_ADDR = BankAddress(0, 0, 0)


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of one simulated attack campaign."""

    flipped: bool
    intervals_run: int
    total_acts: int
    first_flip_interval: Optional[int]
    max_disturbance: float


def simulate_attack(attacker, layout: SubarrayLayout, hcnt: int,
                    raaimt: int, intervals: int,
                    blast_radius: int = 3,
                    shadow_rng: Optional[RandomSource] = None,
                    incremental_refresh: bool = True,
                    shuffle: bool = True) -> MonteCarloResult:
    """Run ``intervals`` RFM intervals of an attack against SHADOW.

    ``attacker`` provides ``interval_rows(i, acts)`` (the Section VII-A
    adversaries).  ``shuffle=False`` and ``incremental_refresh=False``
    expose the ablations: a pure-RFM defence and shuffle-only SHADOW.
    """
    if intervals <= 0:
        raise ValueError("intervals must be positive")
    ctrl = ShadowBankController(
        layout, raaimt=raaimt, rng=shadow_rng or SystemRng(0xC0FFEE),
        incremental_refresh=incremental_refresh)
    model = DisturbanceModel(
        HammerConfig(hcnt=hcnt, blast_radius=blast_radius, layout=layout))

    first_flip = None
    for interval in range(intervals):
        for pa_row in attacker.interval_rows(interval, raaimt):
            da = ctrl.translate(pa_row)
            model.on_activate(_ADDR, da, cycle=interval)
            ctrl.record_activation(pa_row)
        if model.flipped and first_flip is None:
            first_flip = interval
            break
        if shuffle:
            refreshed, copies = ctrl.run_rfm()
            model.on_rfm_outcome(
                _ADDR, RfmOutcome(refreshed_rows=refreshed, copies=copies),
                interval)
        ctrl.check_invariants()

    return MonteCarloResult(
        flipped=model.flipped,
        intervals_run=interval + 1,
        total_acts=model.total_acts,
        first_flip_interval=first_flip,
        max_disturbance=model.max_disturbance(),
    )


def simulate_tracker_defense(attacker, layout: SubarrayLayout,
                             mitigation, hcnt: int, intervals: int,
                             blast_radius: int = 3,
                             acts_per_interval: Optional[int] = None,
                             ref_every: Optional[int] = None
                             ) -> MonteCarloResult:
    """Run an attack campaign against a tracker-based mitigation.

    The MC-side counterpart of :func:`simulate_attack`: instead of
    SHADOW's in-DRAM shuffle, the defense is any
    :class:`~repro.mitigations.base.Mitigation` (typically a
    tracker x policy composition) whose TRRs, swaps and
    RFM-hosted refreshes are applied to the same
    :class:`~repro.rowhammer.model.DisturbanceModel`.  Cycle time is
    abstracted to interval indices -- disturbance accounting only needs
    ordering, not wall-clock -- and every ``ref_every`` intervals a
    tREFW boundary refreshes every DA row and calls ``on_ref``.

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
    from repro.dram.device import DramGeometry
    from repro.dram.timing import DDR5_4800

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
            model.on_activate(_ADDR, da, cycle=interval)
            out = mitigation.on_activate(_ADDR, pa_row, da, interval)
            if out is not None:
                model.on_act_outcome(_ADDR, out, interval)
        if model.flipped and first_flip is None:
            first_flip = interval
            break
        if mitigation.uses_rfm:
            model.on_rfm_outcome(
                _ADDR, mitigation.on_rfm(_ADDR, interval), interval)
        if ref_every and (interval + 1) % ref_every == 0:
            model.on_refresh_range(_ADDR, 0, rows, cycle=interval)
            mitigation.on_ref(_ADDR, 0, rows, interval)

    return MonteCarloResult(
        flipped=model.flipped,
        intervals_run=interval + 1,
        total_acts=model.total_acts,
        first_flip_interval=first_flip,
        max_disturbance=model.max_disturbance(),
    )


def flip_rate(make_attacker: Callable[[int], object],
              layout: SubarrayLayout, hcnt: int, raaimt: int,
              intervals: int, trials: int,
              blast_radius: int = 3, seed: int = 1,
              **kw) -> float:
    """Fraction of ``trials`` campaigns that produced a bit-flip."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    flips = 0
    for t in range(trials):
        attacker = make_attacker(seed * 7919 + t)
        result = simulate_attack(
            attacker, layout, hcnt, raaimt, intervals,
            blast_radius=blast_radius,
            shadow_rng=SystemRng(seed * 104729 + t), **kw)
        flips += int(result.flipped)
    return flips / trials
