"""Rank-level constraints: tRRD, the four-activate window,
bank-group-aware command spacing, and the all-bank REF.

A rank limits how quickly ACTs may issue across its banks: consecutive
ACTs must be tRRD apart (tRRD_L within a bank group, tRRD_S across
groups) and at most four ACTs may fall in any tFAW window.  Column
commands on the shared bus are likewise spaced tCCD_L within a group
and tCCD_S across groups -- the reason controllers interleave bank
groups on DDR4/DDR5.

The rank also owns the all-bank REF and its window (DESIGN.md section
9, "Rank-wide REF").  ``open_banks`` counts its banks that hold an open
row and ``ref_ready`` is the running maximum of every ``next_act``/
``busy_until`` its banks have taken, so a REF is checked once per rank
rather than once per bank; the memory controller updates both at every
command that opens, closes or delays a bank.  A REF writes no bank: it
sets ``ref_until`` (when the REF completes) and counts itself in
``refs``.  A bank's effective ACT/RFM readiness is therefore
``max(next_act, busy_until, ref_until)``; ``record_act`` refuses an ACT
before ``ref_until``, and the controller checks it for RFM.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Sequence

from repro.dram.timing import TimingParams

_FAR_PAST = -(10**12)


class RankTiming:
    """Sliding-window tracker for rank-wide ACT/column constraints, and
    the rank's all-bank REF."""

    __slots__ = ("_t", "_act_times", "_last_act", "_last_act_group",
                 "_group_last_act", "_last_col", "_last_col_group",
                 "banks", "open_banks", "ref_ready", "ref_until", "refs")

    def __init__(self, timing: TimingParams, banks: Sequence = ()):
        self._t = timing
        #: The rank's Bank objects, in bank order.
        self.banks = tuple(banks)
        #: How many of ``banks`` hold an open row.
        self.open_banks = 0
        #: Running maximum of every ``next_act``/``busy_until`` the banks
        #: have taken and of ``ref_until``; all only move forward, so
        #: this is their maximum.
        self.ref_ready = 0
        #: Completion cycle of the last REF: no bank of the rank may take
        #: an ACT or RFM before it.
        self.ref_until = 0
        #: REFs issued to the rank (each refreshes every bank).
        self.refs = 0
        self._act_times: Deque[int] = deque(maxlen=4)
        self._last_act = _FAR_PAST
        self._last_act_group = None
        self._group_last_act: Dict[int, int] = {}
        # Column spacing (tCCD_L/tCCD_S): the controller's scan and
        # column issue read and write these two fields directly.
        self._last_col = _FAR_PAST
        self._last_col_group = None

    # -- activates --------------------------------------------------------------

    def record_act(self, cycle: int, group: int = 0) -> None:
        """Record an ACT to ``group`` at ``cycle``.

        Raises if it comes during the rank's REF, within tRRD of the
        last ACT (tRRD_L if that was to ``group``, tRRD_S otherwise),
        within tRRD_L of the last ACT to ``group``, or within tFAW of
        the fourth-last ACT.  The controller's candidate scan applies
        the same rules when it times an ACT candidate.
        """
        t = self._t
        spacing = t.tRRD_L if group == self._last_act_group else t.tRRD_S
        act_times = self._act_times
        if cycle < self.ref_until:
            raise RuntimeError(
                "DRAM protocol violation: ACT issued during the rank's REF")
        if (cycle < self._last_act + spacing
                or cycle < self._group_last_act.get(group, _FAR_PAST)
                + t.tRRD_L
                or (len(act_times) == 4
                    and cycle < act_times[0] + t.tFAW)):
            raise RuntimeError(
                "DRAM protocol violation: rank ACT before tRRD/tFAW allow"
            )
        self._last_act = cycle
        self._last_act_group = group
        self._group_last_act[group] = cycle
        act_times.append(cycle)

    # -- refresh ------------------------------------------------------------------

    def issue_ref(self, cycle: int) -> int:
        """One all-bank REF at ``cycle``; returns its completion cycle.

        Legal once no bank is open and ``cycle`` reaches ``ref_ready``.
        ``cycle`` is then at least every bank's ``next_act`` and
        ``busy_until``, so the rank's ``ref_until`` alone carries the
        tRFC window; no bank is written.
        """
        if self.open_banks:
            raise RuntimeError(
                "DRAM protocol violation: REF requires a precharged bank")
        if cycle < self.ref_ready:
            raise RuntimeError("DRAM protocol violation: "
                               "REF issued before its timing constraints "
                               "allow")
        done = cycle + self._t.tRFC
        self.ref_until = self.ref_ready = done
        self.refs += 1
        return done
