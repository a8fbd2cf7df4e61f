"""PARA: probabilistic adjacent-row activation (Kim et al., ISCA 2014).

Composition: no tracker x
:class:`~repro.mitigations.compose.ProbabilisticTrr` -- the degenerate
corner of the tracker/policy space (``make_tracker()`` stays None).

Stateless TRR: on every ACT, with probability ``p`` the device refreshes
one neighbour of the activated row (a side chosen at random).  With
blast-aware extension, all rows within the blast radius on the chosen
side are refreshed.

The protection analysis gives the failure probability per hammer
campaign as roughly ``(1 - p/2)^(hcnt/2)`` per side; :func:`para_probability`
inverts that for a target failure rate, which is how the experiments
pick ``p`` per ``H_cnt``.
"""

from __future__ import annotations

from typing import Optional

from repro.mitigations.compose import ComposedMitigation, ProbabilisticTrr
from repro.utils.rng import RandomSource, SystemRng


def para_probability(hcnt: int, target_failure: float = 1e-4) -> float:
    """Pick ``p`` so a single campaign fails with <= ``target_failure``.

    Solves ``(1 - p)^(hcnt/2) <= target`` for p; the hcnt/2 exponent is
    the number of chances PARA gets while the attacker accumulates half
    the threshold on one side.
    """
    if hcnt <= 1:
        raise ValueError("hcnt must be > 1")
    if not 0 < target_failure < 1:
        raise ValueError("target_failure must be in (0, 1)")
    p = 1.0 - target_failure ** (2.0 / hcnt)
    return min(1.0, max(p, 1e-9))


class Para(ComposedMitigation):
    """Stand-alone PARA (per-ACT sampling, no RFM)."""

    def __init__(self, probability: float, blast_radius: int = 1,
                 rng: Optional[RandomSource] = None):
        self.probability = probability
        self.blast_radius = blast_radius
        self.rng = rng or SystemRng(0xBA5E)
        super().__init__(
            policy=ProbabilisticTrr(probability, blast_radius),
            name=f"PARA-p{probability:.2g}",
        )
