"""RFM filtering with a random-projection counter (paper Section VIII).

The paper's final discussion point: BlockHammer/Hydra-style filtering
structures (dual counting Bloom filters, group-count tables) can sit in
front of the RFM interface and skip RFM commands when no tracked row is
anywhere near dangerous, reclaiming most of the RFM performance tax on
benign workloads while leaving the defense intact under attack.

:class:`FilteredRfm` wraps any RFM-based mitigation (SHADOW, PARFM,
Mithril): the RAA counters still run at RAAIMT, but when an RFM window
arrives and the filter's hottest estimate is below the hazard
threshold, the wrapped scheme's in-DRAM work is skipped (the window
still obeys tRFM -- the JEDEC interface provisions it either way; the
filter saves the *extra* mitigations a scheme would otherwise need).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.dram.device import BankAddress
from repro.mitigations.base import ActOutcome, Mitigation, RfmOutcome
from repro.mitigations.trackers import DualCountingBloomFilter


class FilteredRfm(Mitigation):
    """Hazard-filtered wrapper around an RFM-based mitigation."""

    def __init__(self, inner: Mitigation, hazard_threshold: int,
                 cbf_width: int = 1024, cbf_depth: int = 4):
        super().__init__()
        if not inner.uses_rfm:
            raise ValueError("FilteredRfm wraps RFM-based schemes only")
        if hazard_threshold <= 0:
            raise ValueError("hazard_threshold must be positive")
        self.inner = inner
        # The filter observes every ACT; everything else is the inner
        # scheme's, forwarded by the pass-throughs below.
        self.hooks = inner.hooks | {"act"}
        self.hazard_threshold = hazard_threshold
        self.cbf_width = cbf_width
        self.cbf_depth = cbf_depth
        self._filters: Dict[BankAddress, DualCountingBloomFilter] = {}
        self._hot: Dict[BankAddress, int] = {}
        self.rfms_filtered = 0
        self.rfms_passed = 0
        self.name = f"Filtered({inner.name},t{hazard_threshold})"

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        self.inner.bind(geometry, timing)
        self._epoch = max(1, timing.tREFW // 2)

    # -- pass-through surface ------------------------------------------------------

    @property
    def act_extra_cycles(self) -> int:
        return self.inner.act_extra_cycles

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self.inner.raaimt

    @property
    def refresh_interval_scale(self) -> float:
        return self.inner.refresh_interval_scale

    def translate(self, addr: BankAddress, pa_row: int) -> int:
        return self.inner.translate(addr, pa_row)

    def register_translation_listener(self, callback) -> None:
        # Translation is delegated to the inner scheme, so its remaps
        # are the ones listeners care about.
        self.inner.register_translation_listener(callback)

    def register_event_listener(self, callback) -> None:
        # Both layers emit telemetry: the wrapper reports filtered RFMs,
        # the inner scheme its shuffles/refreshes.
        super().register_event_listener(callback)
        self.inner.register_event_listener(callback)

    def before_activate(self, addr: BankAddress, pa_row: int,
                        cycle: int) -> int:
        return self.inner.before_activate(addr, pa_row, cycle)

    def on_ref(self, addrs: Sequence[BankAddress], lo_row: int,
               hi_row: int, cycle: int) -> None:
        self.inner.on_ref(addrs, lo_row, hi_row, cycle)

    # -- the filter ------------------------------------------------------------------

    def _filter(self, addr: BankAddress) -> DualCountingBloomFilter:
        f = self._filters.get(addr)
        if f is None:
            f = DualCountingBloomFilter(self.cbf_width, self._epoch,
                                        self.cbf_depth)
            self._filters[addr] = f
        return f

    def on_activate(self, addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> ActOutcome:
        f = self._filter(addr)
        f.observe(da_row, cycle)
        estimate = f.estimate(da_row, cycle)
        if estimate > self._hot.get(addr, 0):
            self._hot[addr] = estimate
        return self.inner.on_activate(addr, pa_row, da_row, cycle)

    def hazard(self, addr: BankAddress, cycle: int) -> bool:
        """Was any row of this bank near the hazard threshold since the
        last RFM?  Conservative: the sketch never undercounts, so a
        False answer is always safe to act on."""
        return self._hot.get(addr, 0) >= self.hazard_threshold

    def on_rfm(self, addr: BankAddress, cycle: int) -> RfmOutcome:
        hazardous = self.hazard(addr, cycle)
        self._hot[addr] = 0
        if not hazardous:
            self.rfms_filtered += 1
            if self._event_listeners:
                self.emit_event("rfm-filtered", addr, cycle)
            return RfmOutcome(duration=0)
        self.rfms_passed += 1
        return self.inner.on_rfm(addr, cycle)
