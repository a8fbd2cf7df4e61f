"""SHADOW as a pluggable mitigation (ties Sections IV-VI together).

On the MC side SHADOW is invisible except for two things: every ACT
takes tRD_RM longer (the remapping-row read), and the standard DDR5
RAA/RFM machinery must be enabled.  Everything else happens inside the
device: per-bank controllers translate PA rows through remapping rows,
sample aggressors, and execute shuffle + incremental refresh inside each
RFM's tRFM window.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowBankController
from repro.core.pairing import ShadowTimings
from repro.dram.device import BankAddress
from repro.mitigations.base import Mitigation, RfmOutcome
from repro.utils.rng import make_rng


class Shadow(Mitigation):
    """The SHADOW in-DRAM row-shuffle mitigation."""

    hooks = frozenset({"act", "remap"})

    def __init__(self, config: Optional[ShadowConfig] = None):
        super().__init__()
        self.config = config or ShadowConfig()
        self._controllers: Dict[BankAddress, ShadowBankController] = {}
        self.timings: Optional[ShadowTimings] = None
        # The name doubles as a cache key for alone-run results, so it
        # must encode everything that changes SHADOW's timing behaviour.
        self.name = (f"SHADOW-r{self.config.raaimt}"
                     f"-t{self.config.circuit.trd_rm_ns:g}"
                     f"{'' if self.config.pairing else '-nopair'}"
                     f"{'' if self.config.isolation else '-noiso'}"
                     f"{'' if self.config.incremental_refresh else '-noir'}")

    @classmethod
    def for_hcnt(cls, hcnt: int, **overrides) -> "Shadow":
        """SHADOW at the secure RAAIMT for ``hcnt`` (Table II)."""
        return cls(ShadowConfig.for_hcnt(hcnt, **overrides))

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        if not geometry.layout.has_empty_row:
            raise ValueError(
                "SHADOW requires a subarray layout with the empty row"
            )
        self.timings = ShadowTimings(
            timing=timing,
            circuit=self.config.circuit,
            pairing=self.config.pairing,
            isolation=self.config.isolation,
            incremental_refresh=self.config.incremental_refresh,
        )

    # -- controller plumbing ------------------------------------------------------

    def controller(self, addr: BankAddress) -> ShadowBankController:
        ctrl = self._controllers.get(addr)
        if ctrl is None:
            # Each bank's controller consumes its own RNG stream; derive
            # a per-bank seed so streams are independent yet reproducible.
            seed = (self.config.rng_seed * 1_000_003
                    + addr.channel * 4096 + addr.rank * 64 + addr.bank)
            ctrl = ShadowBankController(
                self.geometry.layout,
                raaimt=self.config.raaimt,
                rng=make_rng(self.config.rng_kind, seed=seed),
                incremental_refresh=self.config.incremental_refresh,
            )
            self._controllers[addr] = ctrl
        return ctrl

    # -- Mitigation interface -------------------------------------------------------

    @property
    def act_extra_cycles(self) -> int:
        if self.timings is None:
            raise RuntimeError("SHADOW used before bind()")
        return self.timings.act_extra_cycles

    @property
    def uses_rfm(self) -> bool:
        return True

    @property
    def raaimt(self) -> int:
        return self.config.raaimt

    def translate(self, addr: BankAddress, pa_row: int) -> int:
        self._require_bound()
        return self.controller(addr).translate(pa_row)

    def on_activate(self, addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int):
        self.controller(addr).record_activation(pa_row)
        return None

    def on_rfm(self, addr: BankAddress, cycle: int) -> RfmOutcome:
        self._require_bound()
        refreshed, copies = self.controller(addr).run_rfm()
        # Every run_rfm shuffles (it always executes), so the bank's
        # mapping changed: always notify.
        self.notify_translation_changed(addr)
        if self._event_listeners:
            self.emit_event("shuffle", addr, cycle, {
                "copies": [[src, dst] for src, dst in copies],
                "refreshed_rows": list(refreshed),
            })
        duration = self.timings.rfm_work_cycles(copies=len(copies))
        return RfmOutcome(duration=duration, refreshed_rows=refreshed,
                          copies=copies)

    # -- reporting ---------------------------------------------------------------------

    def total_shuffles(self) -> int:
        return sum(c.shuffles for c in self._controllers.values())

    def total_incremental_refreshes(self) -> int:
        return sum(c.incremental_refreshes
                   for c in self._controllers.values())

    def check_invariants(self) -> None:
        for ctrl in self._controllers.values():
            ctrl.check_invariants()
