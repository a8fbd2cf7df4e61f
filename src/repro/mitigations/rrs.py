"""Randomized Row-Swap (Saileshwar et al., ASPLOS 2022).

Composition: :class:`~repro.mitigations.trackers.MisraGries` x
:class:`RowSwapPolicy`, never reset -- with the swap policy (and its
indirection-table state) defined here, next to the scheme: the one-file
pattern a new action-policy mitigation follows.

The state-of-the-art row-shuffle *competitor* to SHADOW: a Misra-Gries
tracker at the MC samples hot rows; when a row's count crosses the swap
threshold (the paper favourably grants RRS ``H_cnt / 6``), the MC swaps
it with a uniformly random row of the bank through an indirection
table.

The decisive cost (paper Section III-A): each swap streams two rows
through the memory channel, blocking it for >= 4 microseconds.  At low
``H_cnt`` the swap rate explodes and so does the blocking time -- the
mechanism behind RRS's collapse in Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dram.device import BankAddress
from repro.mitigations.base import ActOutcome
from repro.mitigations.compose import ActionPolicy, ComposedMitigation
from repro.mitigations.trackers import MisraGries
from repro.utils.rng import RandomSource, SystemRng


@dataclass(frozen=True)
class RrsConfig:
    """RRS sizing for a target ``H_cnt``."""

    hcnt: int
    swap_latency_ns: float = 4000.0   # paper Section III-A: >= 4 us
    threshold_divisor: int = 6        # paper Section VII-C: hcnt/6
    table_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hcnt <= self.threshold_divisor:
            raise ValueError("hcnt too small for the swap threshold")

    @property
    def swap_threshold(self) -> int:
        return max(1, self.hcnt // self.threshold_divisor)


class _BankIndirection:
    """The Row Indirection Table of one bank: a PA->DA permutation."""

    def __init__(self, identity):
        self._identity = identity
        self._forward: Dict[int, int] = {}

    def translate(self, pa_row: int) -> int:
        da = self._forward.get(pa_row)
        if da is None:
            return self._identity(pa_row)
        return da

    def swap(self, pa_a: int, pa_b: int) -> None:
        da_a, da_b = self.translate(pa_a), self.translate(pa_b)
        self._forward[pa_a] = da_b
        self._forward[pa_b] = da_a


class RowSwapPolicy(ActionPolicy):
    """Swap a threshold-crossing row with a uniformly random partner
    through the bank's indirection table, blocking the channel for the
    two-row stream.  Per-bank state is the indirection table."""

    def __init__(self, threshold: int, swap_latency_ns: float = 4000.0):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.swap_latency_ns = swap_latency_ns
        self.block_cycles: Optional[int] = None

    def bind(self, owner) -> None:
        self.block_cycles = owner.timing.cycles(self.swap_latency_ns)

    def make_state(self, owner) -> _BankIndirection:
        return _BankIndirection(owner.geometry.layout.identity_da)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        estimate = state.tracker.observe(pa_row)
        if estimate < self.threshold:
            return ActOutcome()
        partner = owner.rng.randrange(owner.geometry.rows_per_bank)
        if partner == pa_row:
            partner = (partner + 1) % owner.geometry.rows_per_bank
        table = state.policy
        old_a, old_b = table.translate(pa_row), table.translate(partner)
        table.swap(pa_row, partner)
        owner.notify_translation_changed(addr)
        state.tracker.reset_key(pa_row)
        state.tracker.reset_key(partner)
        owner.swaps += 1
        if owner._event_listeners:
            owner.emit_event("swap", addr, cycle, {
                "pa_a": pa_row, "pa_b": partner,
                "da_a": old_a, "da_b": old_b,
                "block_cycles": self.block_cycles,
            })
        # The swap streams both rows over the channel: both physical rows
        # end up rewritten (fault reset) and the channel blocks.
        return ActOutcome(
            channel_block_cycles=self.block_cycles,
            restored_rows=[old_a, old_b],
        )


class RandomizedRowSwap(ComposedMitigation):
    """Misra-Gries sampling + channel-blocking row swaps."""

    # For translate() below; the composition adds the policy's "act".
    hooks = frozenset({"remap"})

    def __init__(self, config: RrsConfig,
                 rng: Optional[RandomSource] = None):
        self.config = config
        self.rng = rng or SystemRng(0x5A5A)
        super().__init__(
            policy=RowSwapPolicy(config.swap_threshold,
                                 config.swap_latency_ns),
            name=f"RRS-h{config.hcnt}",
        )
        self.swaps = 0

    @classmethod
    def for_hcnt(cls, hcnt: int,
                 rng: Optional[RandomSource] = None) -> "RandomizedRowSwap":
        return cls(RrsConfig(hcnt=hcnt), rng)

    def make_tracker(self) -> MisraGries:
        entries = self.config.table_entries
        if entries is None:
            # Misra-Gries sizing: worst-case ACTs per window / threshold.
            acts_per_window = self.timing.tREFW // self.timing.tRC
            entries = max(16, acts_per_window // self.config.swap_threshold)
        return MisraGries(entries)

    # -- address translation ----------------------------------------------------

    def translate(self, addr: BankAddress, pa_row: int) -> int:
        self._require_bound()
        return self._state(addr).policy.translate(pa_row)
