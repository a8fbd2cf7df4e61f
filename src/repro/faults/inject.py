"""In-loop fault injection: disturbance -> concrete bits -> recovery.

:class:`FaultInjector` is a :class:`~repro.rowhammer.model.DisturbanceModel`
that plugs into the memory controller's observer seam
(``MemoryController(..., observer=...)``).  Every activation the timing
simulator performs charges the DA-space disturbance counters online;
each activation past ``H_cnt`` injects one concrete bit flip at a
seeded-random (codeword, bit) position in the victim row, classifies it
through the SEC-DED model, and -- for detected-uncorrectable errors --
escalates into the recovery pipeline (sPPR retire, refresh-and-retry,
or panic).  Each all-bank REF reaches it as one ``on_refresh`` call for
the whole rank: the base model's sweep restores the refreshed rows, and
with ``scrub_on_refresh`` the same rows are patrol-scrubbed (their
single-bit codewords corrected).

The injector is a **passive observer**: it never issues commands, never
perturbs timing, and never touches controller state.  A run with the
injector attached produces the exact same command stream, cycle count
and statistics as a run without it -- the property the golden suites
pin with injection off, and which the fault-overhead bench gate asserts
directly by comparing cycle counts of the on/off legs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.dram.device import BankAddress
from repro.faults.ecc import MASKED, UNCORRECTABLE, EccConfig, EccModel
from repro.faults.recovery import (
    PANIC,
    RETIRED,
    RecoveryConfig,
    RecoveryPipeline,
)
from repro.rowhammer.model import BitFlip, DisturbanceModel, HammerConfig
from repro.utils.rng import SystemRng


class FaultInjector(DisturbanceModel):
    """Disturbance model + ECC classification + degradation policy."""

    def __init__(self, hammer: HammerConfig,
                 ecc: Optional[EccConfig] = None,
                 recovery: Optional[RecoveryConfig] = None,
                 seed: int = 1,
                 scrub_on_refresh: bool = True):
        super().__init__(hammer)
        self.ecc_config = ecc if ecc is not None else EccConfig()
        self.ecc = EccModel(self.ecc_config)
        self.recovery = RecoveryPipeline(
            recovery if recovery is not None else RecoveryConfig())
        self.seed = seed
        self._rng = SystemRng(seed)
        self._scrub = scrub_on_refresh
        # "Any resident errors to scrub?" is asked on every REF; alias
        # the ECC model's (stable, cleared-in-place) row dict so the
        # common no-errors answer is one truth test.
        self._ecc_rows = self.ecc._rows
        self._retired: set = set()
        self._rows_ever: set = set()
        self._first_flip_cycle: Optional[int] = None
        self.counts: Dict[str, int] = {
            "bits_injected": 0,
            "bits_masked": 0,
            "corrected": 0,
            "uncorrectable": 0,
            "silent": 0,
            "scrub_corrected": 0,
            "suppressed_by_repair": 0,
            "power_cycles": 0,
        }
        self._obs_counters: Dict[str, object] = {}
        self._sink = None

    # -- observability -------------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Mirror injection counters into ``obs.metrics`` and emit one
        trace instant per injected bit when a sink is attached."""
        if obs is None:
            return
        metrics = obs.metrics
        if metrics is not None:
            for name, value in self.counts.items():
                counter = metrics.counter(f"faults.{name}")
                if value:
                    counter.inc(value)
                self._obs_counters[name] = counter
        self._sink = obs.sink

    def _bump(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        counter = self._obs_counters.get(name)
        if counter is not None:
            counter.inc(n)

    # -- injection -----------------------------------------------------------------

    def _record_flip(self, addr: BankAddress, da_row: int, cycle: int,
                     value: float) -> None:
        # Called by the base model for *every* activation whose victim
        # counter sits at or above hcnt -- each one flips one more bit.
        key = (addr, da_row)
        if key in self._retired:
            # The faulty row was sPPR-remapped to a spare; the spare's
            # cells are not the ones being disturbed.
            self._bump("suppressed_by_repair")
            return
        if self._first_flip_cycle is None:
            self._first_flip_cycle = cycle
        if key not in self._flipped:
            self._flipped.add(key)
            self._rows_ever.add(key)
            self.flips.append(BitFlip(addr, da_row, cycle, value))
        rng = self._rng
        codeword = rng.randrange(self.ecc_config.codewords_per_row)
        bit = rng.randrange(self.ecc_config.codeword_bits)
        outcome = self.ecc.inject(key, codeword, bit)
        if outcome == MASKED:
            self._bump("bits_masked")
            return
        self._bump("bits_injected")
        self._bump(outcome)
        sink = self._sink
        if sink is not None:
            sink.instant(addr.channel, addr.bank,
                         f"bit-flip:{outcome}", "fault", cycle,
                         {"rank": addr.rank, "da_row": da_row,
                          "codeword": codeword, "bit": bit,
                          "disturbance": value})
        if outcome == UNCORRECTABLE:
            action = self.recovery.on_uncorrectable(addr, da_row, cycle)
            if action == RETIRED:
                self._retired.add(key)
                self.ecc.clear_row(key)
                bank = self._counters.get(addr)
                if bank is not None:
                    bank.pop(da_row, None)
            elif action == PANIC:
                self._power_cycle()

    def _power_cycle(self) -> None:
        """Reboot: volatile state is gone, memory reloads clean.

        The recovery pipeline already dropped the sPPR soft repairs
        (they do not survive power loss); here the DRAM side resets:
        disturbance counters, resident ECC errors, and the per-epoch
        flip dedup all start over.
        """
        self._bump("power_cycles")
        self._counters.clear()
        self.ecc.clear_all()
        self._retired.clear()
        self._flipped.clear()

    # -- refresh / copy hooks --------------------------------------------------------

    def on_refresh(self, addrs: Sequence[BankAddress], lo: int, hi: int,
                   cycle: int) -> None:
        """One all-bank REF: the base sweep, then a patrol scrub of the
        refreshed rows of every bank in ``addrs``, in bank order."""
        super().on_refresh(addrs, lo, hi, cycle)
        if self._ecc_rows and self._scrub:
            rows = self.config.layout.da_rows_per_bank
            scrub_row = self.ecc.scrub_row
            for addr in addrs:
                for r in range(lo, hi):
                    fixed, _ = scrub_row((addr, r % rows))
                    if fixed:
                        self._bump("scrub_corrected", fixed)

    def on_row_refresh(self, addr: BankAddress, da_row: int,
                       cycle: int) -> None:
        super().on_row_refresh(addr, da_row, cycle)
        if self._ecc_rows and self._scrub:
            fixed, _ = self.ecc.scrub_row((addr, da_row))
            if fixed:
                self._bump("scrub_corrected", fixed)

    def on_row_copy(self, addr: BankAddress, src: int, dst: int,
                    cycle: int) -> None:
        super().on_row_copy(addr, src, dst, cycle)
        if len(self.ecc):
            # The copy moves the *data* -- flipped bits included -- to
            # the destination physical row.
            self.ecc.move_row((addr, src), (addr, dst))

    # -- results -------------------------------------------------------------------

    @property
    def first_flip_cycle(self) -> Optional[int]:
        return self._first_flip_cycle

    def report(self) -> Dict:
        """JSON-able end-of-run summary for engine results and obs."""
        pipe = self.recovery
        counts = dict(self.counts)
        counts.update({
            "repairs": pipe.repairs,
            "retries": pipe.retries,
            "panics": pipe.panics,
            "sppr_exhausted": pipe.sppr_exhausted,
        })
        return {
            "hcnt": self.config.hcnt,
            "blast_radius": self.config.blast_radius,
            "policy": pipe.config.policy,
            "seed": self.seed,
            "total_acts": self.total_acts,
            "first_flip_cycle": self._first_flip_cycle,
            "rows_flipped": len(self._rows_ever),
            "counts": counts,
            "degradation_events": list(pipe.events),
            "degradation_events_total": pipe.events_total,
            "panicked": pipe.panicked,
        }


__all__ = ["FaultInjector"]
