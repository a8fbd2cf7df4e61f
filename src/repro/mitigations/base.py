"""The mitigation interface the memory controller drives.

A mitigation can affect the system in exactly the ways the paper's
Section III taxonomy allows:

* stretch ACT latency (SHADOW's remapping-row read: ``act_extra_cycles``);
* request RFM commands (``uses_rfm`` / ``raaimt``) and perform in-DRAM
  work inside the tRFM window (``on_rfm`` -> :class:`RfmOutcome`);
* refresh victim rows after an ACT (TRR: :class:`ActOutcome.trr_rows`);
* delay an ACT before it issues (throttling: ``before_activate``);
* block a whole channel (RRS row swaps, reported via ``on_activate``
  returning a :class:`ActOutcome` with ``channel_block_cycles``);
* change the auto-refresh rate (DRR: ``refresh_interval_scale``);
* remap row addresses (SHADOW, RRS: ``translate``).

The MC applies each effect on the correct resource and hands each
outcome's row-touching side effects to the Row Hammer fault model (see
the observer contract in :mod:`repro.rowhammer.model`), so security
experiments observe exactly what the timing experiments charge for.

A scheme declares the controller hooks it needs in
:attr:`Mitigation.hooks`; the controller reads that set once, at
construction, and never calls an undeclared hook.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field
from types import MethodType
from typing import Callable, List, Optional, Sequence, Tuple

from repro.dram.device import BankAddress, DramGeometry
from repro.dram.timing import TimingParams


@dataclass
class RfmOutcome:
    """What a mitigation did during one RFM command.

    ``duration`` is the internal busy time in cycles; the MC blocks the
    bank for tRFM regardless, the fixed window the JEDEC interface
    provisions.  ``refreshed_rows`` are DA rows recharged (TRR or
    incremental refresh); ``copies`` are in-DRAM row copies (src, dst) in
    DA space.  Both feed the fault model.
    """

    duration: int = 0
    refreshed_rows: List[int] = field(default_factory=list)
    copies: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class ActOutcome:
    """Side effects of one ACT command.

    ``trr_rows``: DA rows the device must internally refresh right after
    this activation (each charged one tRC of bank time).
    ``channel_block_cycles``: whole-channel blocking started by this ACT
    (RRS row swaps).
    ``restored_rows``: DA rows physically rewritten by an operation whose
    timing is already charged elsewhere (e.g. the two rows of an RRS
    swap, covered by the channel block) -- fault-model reset only.
    """

    trr_rows: List[int] = field(default_factory=list)
    channel_block_cycles: int = 0
    restored_rows: List[int] = field(default_factory=list)


def _listener_ref(callback: Callable) -> Callable[[], Optional[Callable]]:
    """A reference that returns ``callback``, or ``None`` once it is gone.

    A bound method is held weakly: the controller registers its own
    methods and holds the mitigation, so a strong reference would make
    every job's simulator a reference cycle that only a full GC pass
    frees.  Any other callable (a function, a lambda) is held strongly.
    """
    if isinstance(callback, MethodType):
        return weakref.WeakMethod(callback)
    return lambda: callback


class Mitigation(abc.ABC):
    """Base class; the default implementation is a no-op scheme."""

    name = "base"
    #: The hooks the controller drives, a subset of ``{"act", "ref",
    #: "throttle", "remap"}``: ``"act"`` -> :meth:`on_activate` per ACT,
    #: ``"ref"`` -> :meth:`on_ref` once per REF, ``"throttle"`` ->
    #: :meth:`before_activate` per candidate ACT (no candidate memo or
    #: prune), ``"remap"`` -> :meth:`translate` instead of the cached
    #: identity mapping (the scheme must then call
    #: :meth:`notify_translation_changed` on every mapping change).
    #: ``uses_rfm`` alone gates :meth:`on_rfm`.
    hooks: frozenset = frozenset()

    def __init__(self) -> None:
        self.geometry: Optional[DramGeometry] = None
        self.timing: Optional[TimingParams] = None
        # ``_listener_ref`` references: call one to get its callback.
        self._translation_listeners: List[Callable[[], Optional[Callable]]] = []
        self._event_listeners: List[Callable[[], Optional[Callable]]] = []

    # -- lifecycle ------------------------------------------------------------

    def bind(self, geometry: DramGeometry, timing: TimingParams) -> None:
        """Attach to a concrete memory system before simulation starts."""
        self.geometry = geometry
        self.timing = timing

    def _require_bound(self) -> None:
        if self.geometry is None or self.timing is None:
            raise RuntimeError(f"{self.name} used before bind()")

    # -- static timing effects ---------------------------------------------------

    @property
    def act_extra_cycles(self) -> int:
        """Extra latency added to every ACT (SHADOW's tRD_RM)."""
        return 0

    @property
    def uses_rfm(self) -> bool:
        """Whether the MC must run RAA counters and issue RFM commands."""
        return False

    @property
    def raaimt(self) -> int:
        """RFM threshold; only meaningful when :attr:`uses_rfm`."""
        self._require_bound()
        return self.timing.raaimt

    @property
    def refresh_interval_scale(self) -> float:
        """Multiplier on tREFI (DRR returns 0.5)."""
        return 1.0

    # -- address translation ----------------------------------------------------

    def translate(self, addr: BankAddress, pa_row: int) -> int:
        """Map an MC-visible row to the DA row actually activated.

        The default is the factory-identity mapping (PA offsets occupy
        the matching DA slots; empty rows are skipped).
        """
        self._require_bound()
        return self.geometry.layout.identity_da(pa_row)

    # -- invalidation hooks -------------------------------------------------------

    def register_translation_listener(
            self, callback: Callable[[BankAddress], None]) -> None:
        """Subscribe to PA-to-DA mapping changes.

        The memory controller registers here so a remap (a SHADOW
        shuffle, an RRS swap) re-translates exactly the affected bank's
        queued requests and invalidates its cached scheduling state.  Wrappers delegating
        :meth:`translate` to an inner scheme must forward registration
        to that scheme.

        A bound method is held weakly, so its owner must outlive the run
        (the controller does: it holds the mitigation); a plain function
        is held for the mitigation's life.
        """
        self._translation_listeners.append(_listener_ref(callback))

    def notify_translation_changed(self, addr: BankAddress) -> None:
        """Tell listeners ``addr``'s PA-to-DA mapping changed.

        This is the one signal of a mapping change: a scheme declaring
        ``"remap"`` MUST call it after every change to a bank's mapping,
        once the new mapping is what :meth:`translate` returns.  The
        controller re-translates that bank's queued requests here and
        otherwise keeps serving the translations it cached at enqueue.
        """
        for ref in self._translation_listeners:
            callback = ref()
            if callback is not None:
                callback(addr)

    # -- telemetry events ---------------------------------------------------------

    def register_event_listener(
            self, callback: Callable[[str, BankAddress, int, dict], None]
    ) -> None:
        """Subscribe to mitigation telemetry events.

        The observability layer registers here to receive structured
        security/mitigation events -- SHADOW shuffles (with the shuffle's
        source/target DA copies), RRS swaps, BlockHammer throttles.
        Wrappers that delegate behaviour to an inner scheme must forward
        registration so the inner scheme's events are seen too.

        Listeners are held as by :meth:`register_translation_listener`:
        a bound method weakly, so its owner must outlive the run.
        """
        self._event_listeners.append(_listener_ref(callback))

    def emit_event(self, kind: str, addr: BankAddress, cycle: int,
                   payload: Optional[dict] = None) -> None:
        """Deliver ``(kind, addr, cycle, payload)`` to event listeners.

        Emitting schemes MUST pre-gate on ``self._event_listeners`` (one
        truthiness check) so that runs without observability never build
        payload dicts: the no-listener path is a true no-op.
        """
        if payload is None:
            payload = {}
        for ref in self._event_listeners:
            callback = ref()
            if callback is not None:
                callback(kind, addr, cycle, payload)

    # -- event hooks ------------------------------------------------------------

    def before_activate(self, addr: BankAddress, pa_row: int,
                        cycle: int) -> int:
        """Return the earliest cycle this ACT may issue (throttling).

        Non-throttling schemes return ``cycle`` unchanged.
        """
        return cycle

    def on_activate(self, addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        """Observe an issued ACT; optionally demand TRR/blocking work."""
        return None

    def on_rfm(self, addr: BankAddress, cycle: int) -> RfmOutcome:
        """Perform the scheme's RFM-hosted mitigating action."""
        return RfmOutcome()

    def on_ref(self, addrs: Sequence[BankAddress], lo_row: int,
               hi_row: int, cycle: int) -> None:
        """Observe one all-bank REF covering DA rows ``[lo, hi)`` of
        every bank in ``addrs`` (one rank's banks, in bank order)."""

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        return self.name

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the scheme's state is inconsistent
        (SHADOW's remapping rows); the default has nothing to check."""
