"""Shared run-scale configuration for the experiment drivers.

The geometry always matches the paper's system (Table IV: 4 channels,
2 ranks, 16 banks -- 128 banks total) because RFM blocking amortizes
over banks and shrinking the bank count would inflate every RFM-based
scheme's overhead.  Fidelity levels only trim thread counts, request
budgets and workload subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DDR4_2666, DDR5_4800
from repro.spec import SimSpec, TimingSpec


@dataclass(frozen=True)
class FidelityConfig:
    """Run-scale knobs shared by the figure experiments."""

    name: str
    threads: int                 # multi-programmed mix width
    mt_threads: int              # GAPBS/NPB thread count
    requests_per_thread: int
    single_thread_requests: int
    apps_per_suite: int          # GAPBS/NPB apps to run (smoke trims)
    mix_random_count: int        # paper: 32 mixes for Figure 11
    #: Figures 10/11 need enough per-row heat for count-threshold
    #: trackers (RRS, BlockHammer) to trigger, so they run with their
    #: own, larger budget even at smoke fidelity.
    tracker_threads: int = 8
    tracker_requests: int = 3000

    def sim_spec(self, grade: str = "DDR4-2666",
                 requests: Optional[int] = None, seed: int = 3) -> SimSpec:
        """The run-scale spec of this fidelity on the paper's geometry.

        ``requests=None`` takes the fidelity's ``requests_per_thread``;
        an explicit ``requests=0`` reaches ``SimSpec`` and is rejected
        there, not silently replaced by the default.
        """
        return SimSpec(
            timing=TimingSpec(grade),
            requests=(requests if requests is not None
                      else self.requests_per_thread),
            seed=seed,
        )


_SMOKE = FidelityConfig(
    name="smoke", threads=6, mt_threads=4,
    requests_per_thread=1200, single_thread_requests=800,
    apps_per_suite=2, mix_random_count=1,
    tracker_threads=8, tracker_requests=6000,
)

_FULL = FidelityConfig(
    name="full", threads=10, mt_threads=10,
    requests_per_thread=3000, single_thread_requests=2000,
    apps_per_suite=3, mix_random_count=2,
    tracker_threads=10, tracker_requests=10000,
)


def fidelity_config(fidelity: str) -> FidelityConfig:
    """Look up a fidelity level ("smoke" or "full")."""
    if fidelity == "smoke":
        return _SMOKE
    if fidelity == "full":
        return _FULL
    raise ValueError(f"unknown fidelity {fidelity!r}")


#: The paper's H_cnt sweep (Figures 9, 11, 12).
HCNT_SWEEP = (16384, 8192, 4096, 2048)

#: Default H_cnt when a figure holds it fixed (Figure 8).
DEFAULT_HCNT = 4096

__all__ = [
    "DDR4_2666",
    "DDR5_4800",
    "DEFAULT_HCNT",
    "FidelityConfig",
    "HCNT_SWEEP",
    "fidelity_config",
]
