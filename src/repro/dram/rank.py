"""Rank-level constraints: tRRD, the four-activate window, and
bank-group-aware command spacing.

A rank limits how quickly ACTs may issue across its banks: consecutive
ACTs must be tRRD apart (tRRD_L within a bank group, tRRD_S across
groups) and at most four ACTs may fall in any tFAW window.  Column
commands on the shared bus are likewise spaced tCCD_L within a group
and tCCD_S across groups -- the reason controllers interleave bank
groups on DDR4/DDR5.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.dram.timing import TimingParams

_FAR_PAST = -(10**12)


class RankTiming:
    """Sliding-window tracker for rank-wide ACT/column constraints."""

    __slots__ = ("_t", "_act_times", "_last_act", "_last_act_group",
                 "_group_last_act", "_last_col", "_last_col_group")

    def __init__(self, timing: TimingParams):
        self._t = timing
        self._act_times: Deque[int] = deque(maxlen=4)
        self._last_act = _FAR_PAST
        self._last_act_group = None
        self._group_last_act: Dict[int, int] = {}
        self._last_col = _FAR_PAST
        self._last_col_group = None

    # -- activates --------------------------------------------------------------

    def earliest_act(self, cycle: int, group: int = 0) -> int:
        """Earliest cycle >= ``cycle`` an ACT to ``group`` may issue."""
        t = self._t
        spacing = t.tRRD_L if group == self._last_act_group else t.tRRD_S
        earliest = max(cycle, self._last_act + spacing)
        # Same-group back-to-back ACTs always honour tRRD_L even if an
        # other-group ACT slipped in between.
        last_same = self._group_last_act.get(group, _FAR_PAST)
        earliest = max(earliest, last_same + t.tRRD_L)
        if len(self._act_times) == 4:
            earliest = max(earliest, self._act_times[0] + t.tFAW)
        return earliest

    def record_act(self, cycle: int, group: int = 0) -> None:
        # Validation == cycle >= earliest_act(cycle, group), inlined:
        # this runs once per ACT issued.
        t = self._t
        spacing = t.tRRD_L if group == self._last_act_group else t.tRRD_S
        act_times = self._act_times
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

    # -- column commands ------------------------------------------------------------

    def earliest_column(self, cycle: int, group: int = 0) -> int:
        """Earliest cycle >= ``cycle`` a RD/WR to ``group`` may issue."""
        t = self._t
        spacing = t.tCCD_L if group == self._last_col_group else t.tCCD_S
        return max(cycle, self._last_col + spacing)

    def record_column(self, cycle: int, group: int = 0) -> None:
        t = self._t
        spacing = t.tCCD_L if group == self._last_col_group else t.tCCD_S
        if cycle < self._last_col + spacing:
            raise RuntimeError(
                "DRAM protocol violation: column command before tCCD allows"
            )
        self._last_col = cycle
        self._last_col_group = group
