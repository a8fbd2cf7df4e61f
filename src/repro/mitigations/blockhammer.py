"""BlockHammer: blacklist-and-throttle (Yaglikci et al., HPCA 2021).

Composition: :class:`~repro.mitigations.trackers.DualCountingBloomFilter`
x :class:`~repro.mitigations.compose.Throttle`, never reset by the glue
(the D-CBF rotates its own epoch halves on the cycle stamps it is fed).

A dual counting Bloom filter (D-CBF) per bank estimates each row's ACT
count over rolling epoch halves.  Rows whose estimate crosses the
blacklist threshold ``N_BL`` are rate-limited: consecutive ACTs must be
at least ``tDelay`` apart, chosen so a blacklisted row physically cannot
reach ``H_cnt`` activations inside a refresh window.

Two properties drive the paper's Figure 11 shape:

* ``tDelay ~ tREFW / H_cnt`` -- at 2K thresholds the delay becomes tens
  of microseconds per ACT, devastating anything that trips it;
* the Bloom filter aliases: at low thresholds (small ``N_BL``) ordinary
  hot rows in a busy bank get misidentified more often, so normal
  workloads also pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mitigations.compose import ComposedMitigation, Throttle
from repro.mitigations.trackers import DualCountingBloomFilter
from repro.rowhammer.model import blast_weight_sum


@dataclass(frozen=True)
class BlockHammerConfig:
    """BlockHammer sizing for a target ``H_cnt``."""

    hcnt: int
    blast_radius: int = 1
    cbf_width: int = 1024
    cbf_depth: int = 4
    safety_margin: float = 4.0   # hcnt/2 per epoch, two overlapping epochs
    #: Steady-state correction for short simulations.  Blacklisting is a
    #: *rate* condition (a row exceeding N_BL per epoch); a run covering
    #: 1/s of an epoch observes 1/s of each row's count, so the
    #: threshold scales by 1/s to classify the same rows.
    #: 1.0 = full-length run.
    history_scale: float = 1.0
    #: Trace-rate normalization.  The synthetic traces concentrate
    #: per-row activity so count-threshold trackers trigger within short
    #: runs; their hot-row *rates* end up roughly this factor above the
    #: benign applications they model.  The throttle's rate cap (the
    #: delay between a blacklisted row's ACTs) is normalized by the same
    #: factor so throttling severity relative to the workload matches a
    #: full-length run.  1.0 = traces are rate-faithful.
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.hcnt <= 1:
            raise ValueError("hcnt must be > 1")
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        if self.safety_margin < 1.0:
            raise ValueError("safety_margin must be >= 1")
        if self.history_scale < 1.0:
            raise ValueError("history_scale must be >= 1")
        if self.rate_scale < 1.0:
            raise ValueError("rate_scale must be >= 1")

    @property
    def blacklist_threshold(self) -> int:
        """N_BL: estimate at which a row becomes rate-limited."""
        derate = blast_weight_sum(self.blast_radius) / 2.0
        return max(1, int(self.hcnt / self.safety_margin / derate
                          / self.history_scale))


class BlockHammer(ComposedMitigation):
    """D-CBF blacklisting + ACT throttling."""

    def __init__(self, config: BlockHammerConfig):
        self.config = config
        super().__init__(
            policy=Throttle(threshold=config.blacklist_threshold),
            name=(f"BlockHammer-h{config.hcnt}-b{config.blast_radius}"
                  f"-s{config.history_scale:g}"),
        )
        self.throttled_acts = 0
        self.total_delay_cycles = 0

    @classmethod
    def for_hcnt(cls, hcnt: int, blast_radius: int = 1,
                 history_scale: float = 1.0,
                 rate_scale: float = 1.0) -> "BlockHammer":
        return cls(BlockHammerConfig(hcnt=hcnt, blast_radius=blast_radius,
                                     history_scale=history_scale,
                                     rate_scale=rate_scale))

    def make_tracker(self) -> DualCountingBloomFilter:
        return DualCountingBloomFilter(
            self.config.cbf_width, max(1, self.timing.tREFW // 2),
            self.config.cbf_depth)

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        # A blacklisted row may sustain at most hcnt ACTs per tREFW
        # (per weighted blast unit): enforce the matching inter-ACT gap,
        # normalized by the trace-rate compression factor.
        derate = blast_weight_sum(self.config.blast_radius) / 2.0
        budget = max(1, int(self.config.hcnt / derate))
        self.policy.delay = max(
            1, int(timing.tREFW / budget / self.config.rate_scale))

    @property
    def _delay(self) -> Optional[int]:
        return self.policy.delay
