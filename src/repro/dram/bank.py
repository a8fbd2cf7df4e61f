"""Per-bank timing state machine.

The bank enforces the JEDEC command spacings (paper Section II-A):
tRCD between ACT and RD/WR, tRAS before PRE, tRP before the next ACT,
tRC between ACTs, tCCD between column commands, tWR/tRTP write/read to
precharge, plus blocking windows for REF/RFM.

The bank also keeps the open-row state used by FR-FCFS scheduling and
counts command statistics for the power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dram.commands import CommandType
from repro.dram.timing import TimingParams

#: Sentinel for "never constrained".
NEVER = -1


@dataclass
class BankStats:
    """Command counters used by the power model and the experiments."""

    acts: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    rfms: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    extra_act_cycles: int = 0   # total tRD_RM-style latency charged

    def merge(self, other: "BankStats") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def row_hit_rate(self) -> float:
        """Fraction of row-buffer lookups that hit the open row."""
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0


@dataclass
class Bank:
    """Timing and row-buffer state of one DRAM bank."""

    timing: TimingParams
    stats: BankStats = field(default_factory=BankStats)

    open_row: Optional[int] = None     # DA row latched in the row buffer

    # Earliest cycles at which each command class may issue.
    next_act: int = 0
    next_pre: int = 0
    next_rd: int = 0
    next_wr: int = 0
    busy_until: int = 0                # REF/RFM/mitigation blocking window

    def __post_init__(self) -> None:
        t = self.timing
        self._t = t
        # Composite delays used on every column command, summed once.
        self._rd_done = t.tCL + t.tBL
        self._wr_done = t.tCWL + t.tBL
        self._wr_to_rd = t.tCWL + t.tBL + t.tWTR_L
        self._wr_to_pre = t.tCWL + t.tBL + t.tWR

    # -- queries --------------------------------------------------------------

    def earliest_issue(self, kind: CommandType, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` this command could legally issue.

        Does not check open-row semantics (the scheduler decides whether a
        PRE or ACT is needed); checks timing constraints only.
        """
        base = max(cycle, self.busy_until)
        if kind is CommandType.ACT:
            return max(base, self.next_act)
        if kind is CommandType.PRE:
            return max(base, self.next_pre)
        if kind is CommandType.RD:
            return max(base, self.next_rd)
        if kind is CommandType.WR:
            return max(base, self.next_wr)
        if kind in (CommandType.REF, CommandType.RFM):
            # Requires the bank precharged; the caller must PRE first.
            return max(base, self.next_act)
        raise ValueError(f"unsupported command: {kind}")

    # -- state transitions ------------------------------------------------------

    def issue_act(self, row: int, cycle: int, extra_latency: int = 0) -> None:
        """Issue ACT at ``cycle``; ``extra_latency`` is SHADOW's tRD_RM.

        The extra latency models the remapping-row read that precedes the
        real activation: the row buffer is usable (RD/WR) only after
        tRCD + extra, and restoration (tRAS) also starts ``extra`` late.
        """
        # Validation inlined (== earliest_issue(ACT) <= cycle): these
        # guards run once per DRAM command and are the issue-path floor.
        if cycle < self.next_act or cycle < self.busy_until:
            self._fail("ACT issued before its timing constraints allow")
        if self.open_row is not None:
            self._fail("ACT issued to an open bank")
        t = self._t
        self.open_row = row
        self.next_rd = cycle + t.tRCD + extra_latency
        self.next_wr = cycle + t.tRCD + extra_latency
        self.next_pre = cycle + t.tRAS + extra_latency
        self.next_act = cycle + t.tRC + extra_latency
        self.stats.acts += 1
        self.stats.extra_act_cycles += extra_latency

    def issue_pre(self, cycle: int) -> None:
        if cycle < self.next_pre or cycle < self.busy_until:
            self._fail("PRE issued before its timing constraints allow")
        self.open_row = None
        floor = cycle + self._t.tRP
        if floor > self.next_act:
            self.next_act = floor
        self.stats.precharges += 1

    def issue_rd(self, cycle: int) -> int:
        """Issue RD; returns the cycle the data burst completes."""
        if self.open_row is None:
            self._fail("RD issued to a closed bank")
        if cycle < self.next_rd or cycle < self.busy_until:
            self._fail("RD issued before its timing constraints allow")
        t = self._t
        ccd = cycle + t.tCCD_L
        self.next_rd = ccd
        if ccd > self.next_wr:
            self.next_wr = ccd
        rtp = cycle + t.tRTP
        if rtp > self.next_pre:
            self.next_pre = rtp
        self.stats.reads += 1
        return cycle + self._rd_done

    def issue_wr(self, cycle: int) -> int:
        """Issue WR; returns the cycle the write burst completes."""
        if self.open_row is None:
            self._fail("WR issued to a closed bank")
        if cycle < self.next_wr or cycle < self.busy_until:
            self._fail("WR issued before its timing constraints allow")
        t = self._t
        self.next_wr = cycle + t.tCCD_L
        rd = cycle + self._wr_to_rd
        if rd > self.next_rd:
            self.next_rd = rd
        pre = cycle + self._wr_to_pre
        if pre > self.next_pre:
            self.next_pre = pre
        self.stats.writes += 1
        return cycle + self._wr_done

    def issue_ref(self, cycle: int) -> int:
        """All-bank refresh touching this bank; returns completion cycle."""
        return Bank.issue_ref_all((self,), cycle)

    @staticmethod
    def issue_ref_all(banks, cycle: int) -> int:
        """One all-bank REF across ``banks`` (one rank's banks, in bank
        order); returns the completion cycle of the last bank.

        The checks and state updates of :meth:`issue_ref` run per bank in
        one frame, so a rank-wide REF costs one call instead of one per
        bank.
        """
        done = cycle
        for bank in banks:
            if bank.open_row is not None:
                bank._fail("REF requires a precharged bank")
            if cycle < bank.next_act or cycle < bank.busy_until:
                bank._fail("REF issued before its timing constraints allow")
            done = cycle + bank._t.tRFC
            if done > bank.busy_until:
                bank.busy_until = done
            if done > bank.next_act:
                bank.next_act = done
            bank.stats.refreshes += 1
        return done

    def issue_rfm(self, cycle: int, duration: Optional[int] = None) -> int:
        """Per-bank RFM; blocks the bank for ``duration`` (default tRFM)."""
        if self.open_row is not None:
            self._fail("RFM requires a precharged bank")
        if cycle < self.next_act or cycle < self.busy_until:
            self._fail("RFM issued before its timing constraints allow")
        if duration is None:
            duration = self._t.tRFM
        done = cycle + duration
        if done > self.busy_until:
            self.busy_until = done
        if done > self.next_act:
            self.next_act = done
        self.stats.rfms += 1
        return done

    def block_until(self, cycle: int) -> None:
        """External blocking (RRS channel swaps, throttling windows)."""
        self.busy_until = max(self.busy_until, cycle)
        self.next_act = max(self.next_act, cycle)

    def add_act_penalty(self, cycles: int) -> None:
        """Delay the next ACT by internal work (TRR victim refreshes).

        The bank's currently-open row remains readable; only the next
        activation is pushed out, matching an in-DRAM TRR that runs after
        the aggressor row closes.
        """
        if cycles < 0:
            raise ValueError("penalty must be non-negative")
        self.next_act += cycles

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"DRAM protocol violation: {message}")

    @staticmethod
    def _fail(message: str) -> None:
        raise RuntimeError(f"DRAM protocol violation: {message}")
