"""RAA counters for the DDR5 RFM interface (paper Table I, Section II-A).

A small per-bank activation counter (the RAA count) lives at the MC.
When it reaches RAAIMT the MC owes the device an RFM command; issuing
the RFM subtracts RAAIMT, and an all-bank REF also credits the counter
(the device gets mitigation slack during tRFC anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.dram.device import BankAddress


@dataclass
class RaaCounterBank:
    """The full set of per-bank RAA counters.

    ``due_count`` tracks how many banks currently sit at or above RAAIMT
    so the scheduler can skip the per-bank scan entirely in the common
    no-RFM-owed case (:meth:`banks_needing_rfm` is only called when
    ``due_count`` is non-zero).  Iteration order of the scan is the
    counters dict's insertion order, which the scheduler's tie-breaking
    depends on -- do not replace the dict with a set of due banks.
    """

    raaimt: int
    ref_credit: int = None  # decrement applied per REF; defaults to RAAIMT
    counters: Dict[BankAddress, int] = field(default_factory=dict)
    rfms_issued: int = 0
    due_count: int = 0

    def __post_init__(self) -> None:
        if self.raaimt <= 0:
            raise ValueError("RAAIMT must be positive")
        if self.ref_credit is None:
            self.ref_credit = self.raaimt
        if self.ref_credit < 0:
            raise ValueError("ref_credit must be non-negative")
        self.due_count = sum(1 for c in self.counters.values()
                             if c >= self.raaimt)

    def count(self, addr: BankAddress) -> int:
        return self.counters.get(addr, 0)

    def on_activate(self, addr: BankAddress) -> bool:
        """Count one ACT; returns True when this ACT crossed RAAIMT
        (the bank just became RFM-due -- security telemetry hooks on
        exactly these crossings)."""
        value = self.counters.get(addr, 0) + 1
        self.counters[addr] = value
        if value == self.raaimt:
            self.due_count += 1
            return True
        return False

    def rfm_needed(self, addr: BankAddress) -> bool:
        return self.count(addr) >= self.raaimt

    def banks_needing_rfm(self):
        return [a for a, c in self.counters.items() if c >= self.raaimt]

    def on_rfm(self, addr: BankAddress) -> None:
        if not self.rfm_needed(addr):
            raise RuntimeError(
                "RFM issued to a bank whose RAA count is below RAAIMT"
            )
        value = self.counters[addr] - self.raaimt
        self.counters[addr] = value
        if value < self.raaimt:
            self.due_count -= 1
        self.rfms_issued += 1

    def on_ref(self, addr: BankAddress) -> None:
        self.on_ref_all((addr,))

    def on_ref_all(self, addrs) -> None:
        """Credit one all-bank REF to every bank in ``addrs``.

        A bank at zero costs one dict probe.  An absent bank is inserted
        at zero, in ``addrs`` order, exactly as a per-bank credit would
        insert it: insertion order is the RFM tie-break.
        """
        counters = self.counters
        credit = self.ref_credit
        raaimt = self.raaimt
        for addr in addrs:
            old = counters.get(addr)
            if not old:
                if old is None:
                    counters[addr] = 0
                continue
            new = old - credit
            if new < 0:
                new = 0
            counters[addr] = new
            if old >= raaimt > new:
                self.due_count -= 1
