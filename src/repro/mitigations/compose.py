"""Tracker x ActionPolicy x Scope: the mitigation composition substrate.

Every tracker-based Row Hammer defense in the paper's evaluation is the
same machine seen three ways:

* a **Tracker** observes the ACT stream in a bounded structure and
  answers queries -- estimate, hottest entry, or a sampled row;
* an **ActionPolicy** turns those answers into one of the Section III
  mitigating actions: synchronous TRR (Graphene), RFM-hosted TRR
  (Mithril, PARFM, MINT, DAPPER), ACT throttling (BlockHammer), or row
  swaps (RRS);
* a **Scope** binds the state to a granularity (per bank / per rank)
  and a reset cadence (REF-window sweep, every RFM, tracker-internal
  epoch, or never).

:class:`ComposedMitigation` is the glue: schemes declare the triple and
inherit the per-scope state management, the hook plumbing, and tracker
telemetry (reset/query counters, occupancy and spill snapshots routed
through the standard mitigation-event channel into ``repro.obs``).
Adding a mitigation becomes one file: a tracker adapter (if the
structure is new), a policy (if the action is new), and a class naming
the composition -- see ``mint.py`` and ``dapper.py``.

Hot-path discipline: the memory controller drives only the hooks a
scheme declares in :attr:`~repro.mitigations.base.Mitigation.hooks`,
and turns off its candidate memo and lower-bound prune for
``"throttle"``.  A composed scheme derives its set from the triple: the
policy's :attr:`ActionPolicy.hooks` (``{"act"}``, plus ``"throttle"``
for :class:`Throttle`), ``"ref"`` when the scope resets per REF window,
and any hooks the subclass declares itself (RRS adds ``"remap"`` for
its own ``translate``).
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.dram.device import BankAddress
from repro.mitigations.base import ActOutcome, Mitigation, RfmOutcome
from repro.mitigations.trackers import (
    CounterSummary,
    CountMinSketch,
    DualCountingBloomFilter,
    MintSampler,
    MisraGries,
    ResilientMisraGries,
)
from repro.spec.registry import POLICIES, TRACKERS


# -- the Tracker protocol ------------------------------------------------------------

class Tracker(abc.ABC):
    """Uniform protocol over the structures in ``trackers.py``.

    ``observe`` counts one occurrence and may return the key's fresh
    estimate when that is free (Misra-Gries does; sketches return None
    rather than pay extra hash reads on the hot path).  Queries a
    structure cannot answer fall back to safe defaults: no hottest
    entry, no sample, estimate 0.
    """

    kind = "tracker"

    @abc.abstractmethod
    def observe(self, key: int, cycle: int = 0) -> Optional[int]:
        """Count one occurrence of ``key``; optionally return its
        estimate."""

    def estimate(self, key: int, cycle: int = 0) -> int:
        return 0

    def hottest(self) -> Optional[Tuple[int, int]]:
        """The (key, count) a deterministic policy should mitigate."""
        return None

    def sample(self, rng) -> Optional[int]:
        """A row drawn from the tracked window (sampling policies)."""
        return None

    def reset_key(self, key: int) -> None:
        """Forget ``key``'s accumulated count after mitigating it."""

    def settle(self, key: int) -> None:
        """Sink ``key`` below the table floor after mitigating it."""

    def window_reset(self) -> None:
        """Scope-cadence reset (REF window / RFM).  Defaults to a full
        clear; resilient trackers may decay instead."""
        self.clear()

    def clear(self) -> None:
        """Drop all state."""

    def occupancy(self) -> int:
        """Entries currently held (telemetry)."""
        return 0

    def spillover(self) -> int:
        """Evicted/uncounted mass the structure admits (telemetry)."""
        return 0


@TRACKERS.register("misra-gries")
class MisraGriesTracker(Tracker):
    """Heavy-hitters table with spillover floor (Graphene, RRS)."""

    kind = "misra-gries"

    def __init__(self, entries: int):
        self.inner = MisraGries(entries)

    def observe(self, key: int, cycle: int = 0) -> int:
        return self.inner.observe(key)

    def estimate(self, key: int, cycle: int = 0) -> int:
        return self.inner.estimate(key)

    def hottest(self) -> Optional[Tuple[int, int]]:
        return self.inner.max_entry()

    def reset_key(self, key: int) -> None:
        self.inner.reset_key(key)

    def clear(self) -> None:
        self.inner.clear()

    def occupancy(self) -> int:
        return len(self.inner.counts)

    def spillover(self) -> int:
        return self.inner.spill


@TRACKERS.register("counter-summary")
class CounterSummaryTracker(Tracker):
    """Mithril's CbS: min-inheriting bounded counter table."""

    kind = "counter-summary"

    def __init__(self, entries: int):
        self.inner = CounterSummary(entries)

    def observe(self, key: int, cycle: int = 0) -> None:
        self.inner.observe(key)
        return None

    def estimate(self, key: int, cycle: int = 0) -> int:
        return self.inner.counts.get(key, self.inner.floor())

    def hottest(self) -> Optional[Tuple[int, int]]:
        return self.inner.hottest()

    def settle(self, key: int) -> None:
        self.inner.settle(key)

    def clear(self) -> None:
        self.inner.clear()

    def occupancy(self) -> int:
        return len(self.inner.counts)

    def spillover(self) -> int:
        return self.inner.floor()


@TRACKERS.register("dcbf")
class DcbfTracker(Tracker):
    """BlockHammer's dual counting Bloom filter.

    Epoch cadence lives *inside* the structure (it rotates on the cycle
    stamps it is fed), so schemes declare ``Scope(reset="epoch")`` for
    documentation while the composition layer performs no reset calls.
    """

    kind = "dcbf"

    def __init__(self, width: int, epoch_cycles: int, depth: int = 4):
        self.inner = DualCountingBloomFilter(width, epoch_cycles, depth)

    def observe(self, key: int, cycle: int = 0) -> None:
        self.inner.observe(key, cycle)
        return None

    def estimate(self, key: int, cycle: int = 0) -> int:
        return self.inner.estimate(key, cycle)

    def spillover(self) -> int:
        return self.inner.rotations


@TRACKERS.register("count-min")
class CountMinTracker(Tracker):
    """Plain count-min sketch (the RFM-filter extension's counter)."""

    kind = "count-min"

    def __init__(self, width: int, depth: int = 4):
        self.inner = CountMinSketch(width, depth)

    def observe(self, key: int, cycle: int = 0) -> None:
        self.inner.add(key)
        return None

    def estimate(self, key: int, cycle: int = 0) -> int:
        return self.inner.estimate(key)

    def clear(self) -> None:
        self.inner.clear()


@TRACKERS.register("recent-history")
class RecentHistoryTracker(Tracker):
    """PARFM's sampling window: the last ``depth`` activated rows."""

    kind = "recent-history"

    def __init__(self, depth: int):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self._items = deque(maxlen=depth)

    def observe(self, key: int, cycle: int = 0) -> None:
        self._items.append(key)
        return None

    def sample(self, rng) -> Optional[int]:
        if not self._items:
            return None
        return self._items[rng.randrange(len(self._items))]

    def clear(self) -> None:
        self._items.clear()

    def occupancy(self) -> int:
        return len(self._items)


@TRACKERS.register("mint")
class MintTracker(Tracker):
    """MINT's single-entry sampler; selection is pre-committed inside
    the window, so :meth:`sample` consumes no randomness."""

    kind = "mint"

    def __init__(self, window: int, rng):
        self.inner = MintSampler(window, rng)

    def observe(self, key: int, cycle: int = 0) -> None:
        self.inner.observe(key)
        return None

    def sample(self, rng) -> Optional[int]:
        return self.inner.sample()

    def clear(self) -> None:
        self.inner.clear()

    def occupancy(self) -> int:
        return 1 if self.inner.sample() is not None else 0


@TRACKERS.register("dapper")
class DapperTracker(Tracker):
    """DAPPER-style resilient Misra-Gries: estimates and the hottest
    entry are provable lower bounds; window resets decay (halve)."""

    kind = "dapper"

    def __init__(self, entries: int):
        self.inner = ResilientMisraGries(entries)

    def observe(self, key: int, cycle: int = 0) -> int:
        self.inner.observe(key)
        return self.inner.lower_bound(key)

    def estimate(self, key: int, cycle: int = 0) -> int:
        return self.inner.lower_bound(key)

    def hottest(self) -> Optional[Tuple[int, int]]:
        return self.inner.hottest()

    def reset_key(self, key: int) -> None:
        self.inner.reset_key(key)

    def settle(self, key: int) -> None:
        self.inner.reset_key(key)

    def window_reset(self) -> None:
        self.inner.halve()

    def clear(self) -> None:
        self.inner.clear()

    def occupancy(self) -> int:
        return len(self.inner.counts)

    def spillover(self) -> int:
        return self.inner.spill


@TRACKERS.register("none")
class NullTracker(Tracker):
    """No tracking (stateless policies like PARA)."""

    kind = "none"

    def observe(self, key: int, cycle: int = 0) -> None:
        return None


# -- scope ---------------------------------------------------------------------------

#: Reset cadences a scope may declare.  ``"epoch"`` documents trackers
#: that rotate internally on cycle stamps (D-CBF); the composition layer
#: only drives ``"ref-window"`` (in :meth:`ComposedMitigation.on_ref`)
#: and ``"rfm"`` (after each RFM's policy work).
RESET_CADENCES = (None, "ref-window", "rfm", "epoch")

_SCOPE_GRAINS = ("bank", "rank", "channel", "global")


@dataclass(frozen=True)
class Scope:
    """Where tracker/policy state lives and when it resets."""

    per: str = "bank"
    reset: Optional[str] = None

    def __post_init__(self) -> None:
        if self.per not in _SCOPE_GRAINS:
            raise ValueError(f"scope granularity must be one of "
                             f"{_SCOPE_GRAINS}, got {self.per!r}")
        if self.reset not in RESET_CADENCES:
            raise ValueError(f"reset cadence must be one of "
                             f"{RESET_CADENCES}, got {self.reset!r}")

    def key(self, addr: BankAddress) -> Hashable:
        if self.per == "bank":
            return addr
        if self.per == "rank":
            return (addr.channel, addr.rank)
        if self.per == "channel":
            return addr.channel
        return 0


@dataclass(frozen=True)
class TrackerSpec:
    """A tracker by registry name plus constructor parameters.

    Parameter values may be callables ``(geometry, timing) -> value`` so
    sizing that depends on the bound system (table entries from the
    worst-case ACTs per tREFW, D-CBF epochs from tREFW) resolves lazily
    at tracker creation, after ``bind``.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "TrackerSpec":
        return cls(name, tuple(sorted(params.items())))


# -- the action policies --------------------------------------------------------------

class ActionPolicy(abc.ABC):
    """One Section III mitigating action, driven by tracker answers.

    Policies are stateless across scopes: per-scope mutable state comes
    from :meth:`make_state` and is threaded back into every hook, so one
    policy instance serves every bank of its owning mitigation.
    """

    kind = "policy"
    #: Controller hooks the policy needs (see ``Mitigation.hooks``).
    hooks = frozenset({"act"})

    def bind(self, owner: "ComposedMitigation") -> None:
        """Resolve timing-derived parameters once the owner is bound."""

    def make_state(self, owner: "ComposedMitigation") -> Any:
        """Fresh per-scope policy state (None when the tracker is all
        the state there is)."""
        return None

    def on_activate(self, owner: "ComposedMitigation", state: "_ScopeState",
                    addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        return None

    def before_activate(self, owner: "ComposedMitigation",
                        state: "_ScopeState", addr: BankAddress,
                        pa_row: int, cycle: int) -> int:
        return cycle

    def on_rfm(self, owner: "ComposedMitigation", state: "_ScopeState",
               addr: BankAddress, cycle: int) -> RfmOutcome:
        return RfmOutcome()


def _blast_victims(owner: "ComposedMitigation", da_row: int,
                   blast_radius: int):
    layout = owner.geometry.layout
    return [row for row, _d in layout.da_neighbors(da_row, blast_radius)]


@POLICIES.register("trr-threshold")
class ThresholdTrr(ActionPolicy):
    """Synchronous TRR when a row's estimate crosses a threshold
    (Graphene): victims refresh immediately on the triggering ACT."""

    kind = "trr-threshold"

    def __init__(self, threshold: int, blast_radius: int = 1):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.blast_radius = max(1, blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        estimate = state.tracker.observe(da_row)
        if estimate < self.threshold:
            return ActOutcome()
        state.tracker.reset_key(da_row)
        victims = _blast_victims(owner, da_row, self.blast_radius)
        owner.trr_count += len(victims)
        return ActOutcome(trr_rows=victims)


@POLICIES.register("rfm-trr-hottest")
class RfmTrrHottest(ActionPolicy):
    """RFM-hosted TRR on the tracker's hottest row (Mithril, DAPPER):
    each RFM refreshes one neighbourhood and settles the entry."""

    kind = "rfm-trr-hottest"

    def __init__(self, blast_radius: int = 1):
        self.blast_radius = max(1, blast_radius)

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


@POLICIES.register("rfm-trr-sampled")
class RfmTrrSampled(ActionPolicy):
    """RFM-hosted TRR on a row sampled from the tracked window (PARFM's
    history, MINT's single entry)."""

    kind = "rfm-trr-sampled"

    def __init__(self, blast_radius: int = 1):
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.blast_radius = blast_radius

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(da_row)
        return None

    def on_rfm(self, owner, state, addr, cycle):
        target = state.tracker.sample(owner.rng)
        if target is None:
            return RfmOutcome(duration=0)
        victims = _blast_victims(owner, target, self.blast_radius)
        owner.trr_count += len(victims)
        duration = len(victims) * owner.timing.tRC
        return RfmOutcome(duration=duration, refreshed_rows=victims)


@POLICIES.register("trr-probabilistic")
class ProbabilisticTrr(ActionPolicy):
    """PARA: Bernoulli(p) per ACT, TRR one random-side neighbourhood of
    the activated row.  Needs no tracker at all."""

    kind = "trr-probabilistic"

    def __init__(self, probability: float, blast_radius: int = 1):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.probability = probability
        self.blast_radius = blast_radius

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


@POLICIES.register("throttle")
class Throttle(ActionPolicy):
    """BlockHammer: rate-limit ACTs to rows whose estimate crosses the
    blacklist threshold.  Per-scope state is the last-ACT cycle map."""

    kind = "throttle"
    hooks = frozenset({"act", "throttle"})

    def __init__(self, threshold: int, delay):
        self.threshold = threshold
        #: ``delay`` may be a callable ``(geometry, timing) -> cycles``.
        self._delay_spec = delay
        self.delay = None if callable(delay) else delay

    def bind(self, owner):
        spec = self._delay_spec
        self.delay = (spec(owner.geometry, owner.timing)
                      if callable(spec) else spec)

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

class _ScopeState:
    """One scope key's state: its tracker plus the policy's scratch."""

    __slots__ = ("tracker", "policy")

    def __init__(self, tracker: Tracker, policy: Any):
        self.tracker = tracker
        self.policy = policy


class ComposedMitigation(Mitigation):
    """A mitigation declared as tracker x policy x scope.

    Subclasses pass the triple up and keep only their public face
    (name, ``uses_rfm``/``raaimt`` properties, reporting attributes).
    The glue owns per-scope state creation, the hook plumbing, reset
    cadences, tracker telemetry and the :attr:`hooks` the triple needs;
    a class-level ``hooks`` on the subclass adds to that set.
    """

    def __init__(self, tracker: TrackerSpec, policy: ActionPolicy,
                 scope: Scope = Scope(), name: Optional[str] = None):
        super().__init__()
        self.tracker_spec = tracker
        self.policy = policy
        self.scope = scope
        self.hooks = type(self).hooks | policy.hooks
        if scope.reset == "ref-window":
            self.hooks |= {"ref"}
        self._states: Dict[Hashable, _ScopeState] = {}
        self.trr_count = 0
        self.tracker_queries = 0
        self.tracker_resets = 0
        if name is not None:
            self.name = name

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        self.policy.bind(self)

    def describe_composition(self) -> str:
        cadence = f"/{self.scope.reset}" if self.scope.reset else ""
        return (f"{self.tracker_spec.name} x {self.policy.kind} x "
                f"{self.scope.per}{cadence}")

    # -- per-scope state -------------------------------------------------------

    def _make_tracker(self) -> Tracker:
        params = {key: (value(self.geometry, self.timing)
                        if callable(value) else value)
                  for key, value in self.tracker_spec.params}
        return TRACKERS.build(self.tracker_spec.name, **params)

    def _state(self, addr: BankAddress) -> _ScopeState:
        key = self.scope.key(addr)
        state = self._states.get(key)
        if state is None:
            state = _ScopeState(self._make_tracker(),
                                self.policy.make_state(self))
            self._states[key] = state
        return state

    def _peek_state(self, addr: BankAddress) -> Optional[_ScopeState]:
        return self._states.get(self.scope.key(addr))

    def _reset_tracker(self, state: _ScopeState, addr: BankAddress,
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
        """Entries held across every scope (obs snapshots)."""
        return sum(s.tracker.occupancy() for s in self._states.values())

    def tracker_spill(self) -> int:
        """Spilled/evicted mass across every scope (obs snapshots)."""
        return sum(s.tracker.spillover() for s in self._states.values())

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
        self.tracker_queries += 1
        outcome = self.policy.on_rfm(self, state, addr, cycle)
        if self.scope.reset == "rfm":
            self._reset_tracker(state, addr, cycle)
        return outcome

    def on_ref(self, addr: BankAddress, lo_row: int, hi_row: int,
               cycle: int) -> None:
        """The ``"ref-window"`` cadence: reset each bank's tracker when
        the refresh sweep wraps to row 0.  Clearing per REF segment would
        be more precise but strictly weaker for the attacker.  Resilient
        trackers decay instead of clearing (their ``window_reset``).  A
        no-op for every other cadence, so callers that drive ``on_ref``
        on any scheme stay correct."""
        if lo_row == 0 and self.scope.reset == "ref-window":
            state = self._peek_state(addr)
            if state is not None:
                self._reset_tracker(state, addr, cycle)


__all__ = [
    "ActionPolicy",
    "ComposedMitigation",
    "CounterSummaryTracker",
    "CountMinTracker",
    "DapperTracker",
    "DcbfTracker",
    "MintTracker",
    "MisraGriesTracker",
    "NullTracker",
    "ProbabilisticTrr",
    "RecentHistoryTracker",
    "RfmTrrHottest",
    "RfmTrrSampled",
    "Scope",
    "ThresholdTrr",
    "Throttle",
    "Tracker",
    "TrackerSpec",
]
