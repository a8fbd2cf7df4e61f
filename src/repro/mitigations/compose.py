"""Tracker x ActionPolicy: the mitigation composition substrate.

Every tracker-based Row Hammer defense in the paper's evaluation is the
same machine seen two ways:

* a **tracker** observes the ACT stream in a bounded structure and
  answers queries -- estimate, hottest entry, or a sampled row.  The
  trackers are the structures in :mod:`repro.mitigations.trackers`
  themselves; each scheme builds one per bank in :meth:`make_tracker`;
* an **ActionPolicy** turns those answers into one of the Section III
  mitigating actions: synchronous TRR (Graphene), RFM-hosted TRR
  (Mithril, PARFM, MINT, DAPPER), ACT throttling (BlockHammer), or row
  swaps (RRS).

State is per bank.  A scheme names the tracker's reset cadence with
``reset``: ``None`` (never, or the structure rotates itself, as the
D-CBF does on the cycle stamps it is fed), ``"ref-window"`` (when the
refresh sweep wraps) or ``"rfm"`` (after each RFM's policy work).

:class:`ComposedMitigation` is the glue: schemes pass a policy and a
cadence, build their tracker, and inherit the per-bank state, the hook
plumbing and tracker telemetry (a reset counter, occupancy snapshots,
and ``tracker-reset`` events routed through the standard
mitigation-event channel into ``repro.obs``).  Adding a mitigation is
one file: a structure (if the tracker is new), a policy (if the action
is new), and a class naming both -- see ``mint.py`` and ``dapper.py``.

Hot-path discipline: the memory controller drives only the hooks a
scheme declares in :attr:`~repro.mitigations.base.Mitigation.hooks`,
and turns off its candidate memo and lower-bound prune for
``"throttle"``.  A composed scheme derives its set from the policy's
:attr:`ActionPolicy.hooks` (``{"act"}``, plus ``"throttle"`` for
:class:`Throttle`), ``"ref"`` for the ``"ref-window"`` cadence, and any
hooks the subclass declares itself (RRS adds ``"remap"`` for its own
``translate``).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence

from repro.dram.device import BankAddress
from repro.mitigations.base import ActOutcome, Mitigation, RfmOutcome

#: Tracker reset cadences a composed scheme may declare.
RESET_CADENCES = (None, "ref-window", "rfm")


# -- the action policies --------------------------------------------------------------

class ActionPolicy(abc.ABC):
    """One Section III mitigating action, driven by tracker answers.

    Policies are stateless across banks: per-bank mutable state comes
    from :meth:`make_state` and is threaded back into every hook, so one
    policy instance serves every bank of its owning mitigation.
    """

    #: Controller hooks the policy needs (see ``Mitigation.hooks``).
    hooks = frozenset({"act"})

    def bind(self, owner: "ComposedMitigation") -> None:
        """Resolve timing-derived parameters once the owner is bound."""

    def make_state(self, owner: "ComposedMitigation") -> Any:
        """Fresh per-bank policy state (None when the tracker is all
        the state there is)."""
        return None

    def on_activate(self, owner: "ComposedMitigation", state: "_BankState",
                    addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        return None

    def before_activate(self, owner: "ComposedMitigation",
                        state: "_BankState", addr: BankAddress,
                        pa_row: int, cycle: int) -> int:
        return cycle

    def on_rfm(self, owner: "ComposedMitigation", state: "_BankState",
               addr: BankAddress, cycle: int) -> RfmOutcome:
        return RfmOutcome()


def _checked_radius(blast_radius: int) -> int:
    if blast_radius < 1:
        raise ValueError("blast_radius must be >= 1")
    return blast_radius


def _blast_victims(owner: "ComposedMitigation", da_row: int,
                   blast_radius: int):
    layout = owner.geometry.layout
    return [row for row, _d in layout.da_neighbors(da_row, blast_radius)]


class ThresholdTrr(ActionPolicy):
    """Synchronous TRR when a row's estimate crosses a threshold
    (Graphene): victims refresh immediately on the triggering ACT."""

    def __init__(self, threshold: int, blast_radius: int = 1):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.blast_radius = _checked_radius(blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        estimate = state.tracker.observe(da_row)
        if estimate < self.threshold:
            return ActOutcome()
        state.tracker.reset_key(da_row)
        victims = _blast_victims(owner, da_row, self.blast_radius)
        owner.trr_count += len(victims)
        return ActOutcome(trr_rows=victims)


class RfmTrrHottest(ActionPolicy):
    """RFM-hosted TRR on the tracker's hottest row (Mithril, DAPPER):
    each RFM refreshes one neighbourhood and settles the entry."""

    def __init__(self, blast_radius: int = 1):
        self.blast_radius = _checked_radius(blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(da_row)
        return None

    def on_rfm(self, owner, state, addr, cycle):
        hottest = state.tracker.hottest()
        if hottest is None:
            return RfmOutcome(duration=0)
        target, _count = hottest
        state.tracker.settle(target)
        victims = _blast_victims(owner, target, self.blast_radius)
        owner.trr_count += len(victims)
        duration = len(victims) * owner.timing.tRC
        return RfmOutcome(duration=duration, refreshed_rows=victims)


class RfmTrrSampled(ActionPolicy):
    """RFM-hosted TRR on a row sampled from the tracked window (PARFM's
    history, MINT's single entry)."""

    def __init__(self, blast_radius: int = 1):
        self.blast_radius = _checked_radius(blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(da_row)
        return None

    def on_rfm(self, owner, state, addr, cycle):
        target = state.tracker.sample()
        if target is None:
            return RfmOutcome(duration=0)
        victims = _blast_victims(owner, target, self.blast_radius)
        owner.trr_count += len(victims)
        duration = len(victims) * owner.timing.tRC
        return RfmOutcome(duration=duration, refreshed_rows=victims)


class ProbabilisticTrr(ActionPolicy):
    """PARA: Bernoulli(p) per ACT, TRR one random-side neighbourhood of
    the activated row.  Needs no tracker at all."""

    def __init__(self, probability: float, blast_radius: int = 1):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.probability = probability
        self.blast_radius = _checked_radius(blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        # Bernoulli(p) trial using 24 fresh random bits.
        draw = owner.rng.next_bits(24)
        if draw >= int(self.probability * (1 << 24)):
            return ActOutcome()
        side = 1 if owner.rng.next_bits(1) else -1
        layout = owner.geometry.layout
        lo, hi = layout.da_range(layout.subarray_of_da(da_row))
        victims = []
        for d in range(1, self.blast_radius + 1):
            row = da_row + side * d
            if lo <= row < hi:
                victims.append(row)
        owner.trr_count += len(victims)
        return ActOutcome(trr_rows=victims)


class Throttle(ActionPolicy):
    """BlockHammer: rate-limit ACTs to rows whose estimate crosses the
    blacklist threshold.  Per-bank state is the last-ACT cycle map."""

    hooks = frozenset({"act", "throttle"})

    def __init__(self, threshold: int):
        self.threshold = threshold
        #: Minimum cycles between a blacklisted row's ACTs; timing-
        #: derived, so the owner sets it when it binds.
        self.delay: Optional[int] = None

    def make_state(self, owner):
        return {}

    def before_activate(self, owner, state, addr, pa_row, cycle):
        estimate = state.tracker.estimate(pa_row, cycle)
        if estimate < self.threshold:
            return cycle
        last = state.policy.get(pa_row)
        if last is None:
            return cycle
        allowed = last + self.delay
        if allowed > cycle:
            owner.throttled_acts += 1
            owner.total_delay_cycles += allowed - cycle
            if owner._event_listeners:
                # Per throttle *evaluation* (the scheduler may probe a
                # candidate more than once before it issues), matching
                # the ``throttled_acts`` counter's semantics.
                owner.emit_event("throttle", addr, cycle, {
                    "pa_row": pa_row, "delay": allowed - cycle})
            return allowed
        return cycle

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(pa_row, cycle)
        state.policy[pa_row] = cycle
        return None


# -- the composition glue -------------------------------------------------------------

class _BankState:
    """One bank's state: its tracker plus the policy's scratch."""

    __slots__ = ("tracker", "policy")

    def __init__(self, tracker: Any, policy: Any):
        self.tracker = tracker
        self.policy = policy


class ComposedMitigation(Mitigation):
    """A mitigation declared as a per-bank tracker driven by a policy.

    Subclasses pass the policy and reset cadence up, build their tracker
    in :meth:`make_tracker`, and keep only their public face (name,
    ``uses_rfm``/``raaimt`` properties, reporting attributes).  The glue
    owns per-bank state creation, the hook plumbing, the reset cadence,
    tracker telemetry and the :attr:`hooks` the composition needs; a
    class-level ``hooks`` on the subclass adds to that set.
    """

    def __init__(self, policy: ActionPolicy, reset: Optional[str] = None,
                 name: Optional[str] = None):
        super().__init__()
        if reset not in RESET_CADENCES:
            raise ValueError(f"reset cadence must be one of "
                             f"{RESET_CADENCES}, got {reset!r}")
        self.policy = policy
        self.reset_cadence = reset
        self.hooks = type(self).hooks | policy.hooks
        if reset == "ref-window":
            self.hooks |= {"ref"}
        self._states: Dict[BankAddress, _BankState] = {}
        self.trr_count = 0
        self.tracker_resets = 0
        if name is not None:
            self.name = name

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        self.policy.bind(self)

    def make_tracker(self) -> Any:
        """A fresh tracker for one bank, built lazily after ``bind`` so
        sizing may read ``self.geometry``/``self.timing``.  None for
        policies that track nothing (PARA)."""
        return None

    # -- per-bank state --------------------------------------------------------

    def _state(self, addr: BankAddress) -> _BankState:
        state = self._states.get(addr)
        if state is None:
            state = _BankState(self.make_tracker(),
                               self.policy.make_state(self))
            self._states[addr] = state
        return state

    def _reset_tracker(self, state: _BankState, addr: BankAddress,
                       cycle: int) -> None:
        self.tracker_resets += 1
        if self._event_listeners:
            self.emit_event("tracker-reset", addr, cycle, {
                "occupancy": state.tracker.occupancy(),
                "spill": state.tracker.spillover(),
            })
        state.tracker.window_reset()

    # -- telemetry -------------------------------------------------------------

    def tracker_occupancy(self) -> int:
        """Entries held across every bank's tracker."""
        return sum(s.tracker.occupancy() for s in self._states.values())

    # -- hooks -----------------------------------------------------------------

    def before_activate(self, addr: BankAddress, pa_row: int,
                        cycle: int) -> int:
        return self.policy.before_activate(self, self._state(addr), addr,
                                           pa_row, cycle)

    def on_activate(self, addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        return self.policy.on_activate(self, self._state(addr), addr,
                                       pa_row, da_row, cycle)

    def on_rfm(self, addr: BankAddress, cycle: int) -> RfmOutcome:
        self._require_bound()
        state = self._state(addr)
        outcome = self.policy.on_rfm(self, state, addr, cycle)
        if self.reset_cadence == "rfm":
            self._reset_tracker(state, addr, cycle)
        return outcome

    def on_ref(self, addrs: Sequence[BankAddress], lo_row: int,
               hi_row: int, cycle: int) -> None:
        """The ``"ref-window"`` cadence: reset each bank's tracker, in
        ``addrs`` order, when the refresh sweep wraps to row 0.  Clearing
        per REF segment would be more precise but strictly weaker for
        the attacker.  Resilient trackers decay instead of clearing
        (their ``window_reset``).  A no-op for every other cadence, so
        callers that drive ``on_ref`` on any scheme stay correct."""
        if lo_row == 0 and self.reset_cadence == "ref-window":
            states = self._states
            for addr in addrs:
                state = states.get(addr)
                if state is not None:
                    self._reset_tracker(state, addr, cycle)


__all__ = [
    "ActionPolicy",
    "ComposedMitigation",
    "ProbabilisticTrr",
    "RfmTrrHottest",
    "RfmTrrSampled",
    "ThresholdTrr",
    "Throttle",
]
