"""Channel-level shared resources: command bus and data bus.

One command may issue per channel per cycle; data bursts occupy the
shared data bus for tBL cycles.  RRS-style row swaps block the whole
channel (paper Section III-A), which is modelled here explicitly.
"""

from __future__ import annotations


class ChannelTiming:
    """Occupancy tracking for one channel's command and data buses.

    The scheduler's candidate scan reads ``_cmd_free_at``,
    ``_data_free_at`` and ``_blocked_until`` directly, once per scan (both
    bus floors are constant between issued commands).  The ACT, PRE, REF
    and column paths inline :meth:`record_command` (RFM calls it), and
    the column path inlines :meth:`record_data`.
    """

    __slots__ = ("_cmd_free_at", "_data_free_at", "_blocked_until",
                 "blocked_cycles", "commands_issued", "data_busy_cycles")

    def __init__(self):
        self._cmd_free_at = 0
        self._data_free_at = 0
        self._blocked_until = 0
        self.blocked_cycles = 0   # total channel-blocking time (RRS swaps)
        self.commands_issued = 0  # commands placed on the command bus
        self.data_busy_cycles = 0  # total data-bus burst occupancy

    # -- command bus -----------------------------------------------------------

    def earliest_command(self, cycle: int) -> int:
        return max(cycle, self._cmd_free_at, self._blocked_until)

    def record_command(self, cycle: int) -> None:
        # == cycle < earliest_command(cycle), without the call/max.
        if cycle < self._cmd_free_at or cycle < self._blocked_until:
            raise RuntimeError(
                "DRAM protocol violation: command bus busy at issue time"
            )
        self._cmd_free_at = cycle + 1
        self.commands_issued += 1

    # -- data bus ---------------------------------------------------------------

    def earliest_data(self, start: int) -> int:
        """Earliest cycle >= ``start`` a data burst may begin."""
        return max(start, self._data_free_at, self._blocked_until)

    def record_data(self, start: int, burst: int) -> None:
        if start < self._data_free_at or start < self._blocked_until:
            raise RuntimeError(
                "DRAM protocol violation: data bus busy at burst start"
            )
        self._data_free_at = start + burst
        self.data_busy_cycles += burst

    # -- whole-channel blocking (RRS) --------------------------------------------

    def block(self, cycle: int, duration: int) -> int:
        """Block the entire channel for ``duration`` cycles; returns end."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(cycle, self._blocked_until)
        self._blocked_until = start + duration
        self.blocked_cycles += duration
        return self._blocked_until
