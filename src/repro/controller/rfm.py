"""RAA counters for the DDR5 RFM interface (paper Table I, Section II-A).

A small per-bank activation counter (the RAA count) lives at the MC.
When it reaches RAAIMT the MC owes the device an RFM command; issuing
the RFM subtracts RAAIMT, and an all-bank REF also credits the counter
(the device gets mitigation slack during tRFC anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.dram.device import BankAddress


@dataclass
class RaaCounterBank:
    """The full set of per-bank RAA counters.

    ``due[channel]`` lists the channel's banks that sit at or above
    RAAIMT (a channel with none has no key), so the scheduler's RFM pass
    reads only its own channel's due banks and an idle channel with
    nothing due skips it.  Each list is in ``counters`` insertion order,
    which is the scheduler's RFM tie-break: a bank that becomes due is
    appended, and the list is sorted by insertion position only when it
    already held another bank.

    ``_clean`` marks *clean* ranks: the REF that leaves every bank of a
    rank present and at zero maps the rank's ``(channel, rank)`` to the
    bank sequence it credited, and the ACT that lifts any counter of the
    rank from zero drops the mark.  A credit to a clean rank changes no
    counter, no insertion order and no due list, so ``on_ref_all`` on
    the same sequence returns at once: an idle rank's REF costs O(1).
    """

    raaimt: int
    ref_credit: int = None  # decrement applied per REF; defaults to RAAIMT
    counters: Dict[BankAddress, int] = field(default_factory=dict)
    rfms_issued: int = 0
    due: Dict[int, List[BankAddress]] = field(default_factory=dict,
                                              init=False)
    #: Insertion position of every bank in ``counters``, rebuilt before
    #: a sort once ``counters`` has grown (a bank is never removed, so
    #: its position never changes).
    _order: Dict[BankAddress, int] = field(default_factory=dict,
                                           init=False, repr=False,
                                           compare=False)
    #: ``(channel, rank)`` -> the bank sequence whose credit left every
    #: counter in it at zero, while no ACT has lifted one since.
    _clean: Dict[Tuple[int, int], Sequence[BankAddress]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.raaimt <= 0:
            raise ValueError("RAAIMT must be positive")
        if self.ref_credit is None:
            self.ref_credit = self.raaimt
        if self.ref_credit < 0:
            raise ValueError("ref_credit must be non-negative")
        for addr, count in self.counters.items():
            if count >= self.raaimt:
                self.due.setdefault(addr.channel, []).append(addr)

    @property
    def due_count(self) -> int:
        """How many banks sit at or above RAAIMT, over all channels."""
        return sum(map(len, self.due.values()))

    def count(self, addr: BankAddress) -> int:
        return self.counters.get(addr, 0)

    def on_activate(self, addr: BankAddress) -> bool:
        """Count one ACT; returns True when this ACT crossed RAAIMT
        (the bank just became RFM-due -- security telemetry hooks on
        exactly these crossings)."""
        value = self.counters.get(addr, 0) + 1
        self.counters[addr] = value
        if value == 1 and self._clean:
            self._clean.pop(addr[:2], None)  # (channel, rank)
        if value == self.raaimt:
            banks = self.due.get(addr.channel)
            if banks is None:
                self.due[addr.channel] = [addr]
            else:
                banks.append(addr)
                order = self._order
                if len(order) != len(self.counters):
                    self._order = order = {
                        a: i for i, a in enumerate(self.counters)}
                banks.sort(key=order.__getitem__)
            return True
        return False

    def _undue(self, addr: BankAddress) -> None:
        """Drop ``addr`` from its channel's due list."""
        banks = self.due[addr.channel]
        banks.remove(addr)
        if not banks:
            del self.due[addr.channel]

    def rfm_needed(self, addr: BankAddress) -> bool:
        return self.count(addr) >= self.raaimt

    def on_rfm(self, addr: BankAddress) -> None:
        if not self.rfm_needed(addr):
            raise RuntimeError(
                "RFM issued to a bank whose RAA count is below RAAIMT"
            )
        value = self.counters[addr] - self.raaimt
        self.counters[addr] = value
        if value < self.raaimt:
            self._undue(addr)
        self.rfms_issued += 1

    def on_ref_all(self, addrs: Sequence[BankAddress]) -> None:
        """Credit one all-bank REF to every bank in ``addrs``, which are
        banks of one rank.

        A bank at zero costs one dict probe.  An absent bank is inserted
        at zero, in ``addrs`` order, exactly as a per-bank credit would
        insert it: insertion order is the RFM tie-break.  When the
        credit leaves every bank of ``addrs`` at zero, the rank is
        marked clean, and the next credit of the same ``addrs`` object
        returns at once unless an ACT to the rank came in between.
        """
        key = addrs[0][:2]  # (channel, rank)
        if self._clean.get(key) is addrs:
            return
        counters = self.counters
        credit = self.ref_credit
        raaimt = self.raaimt
        clean = True
        for addr in addrs:
            old = counters.get(addr)
            if not old:
                if old is None:
                    counters[addr] = 0
                continue
            new = old - credit
            if new > 0:
                clean = False
            else:
                new = 0
            counters[addr] = new
            if old >= raaimt > new:
                self._undue(addr)
        if clean:
            self._clean[key] = addrs
