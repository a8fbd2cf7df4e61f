"""Disturbance accumulation and bit-flip detection.

Threat model (paper Section II-D):

1. more than ``H_cnt`` (weighted) activations within the refresh window
   flip bits in the victim row;
2. non-adjacent rows inside the blast radius are also disturbed, with
   the effect halving per wordline of distance;
3. disturbance does not cross subarray boundaries;
4. an activation (or refresh) of a row restores its cells, resetting its
   accumulated disturbance.

The model lives entirely in DA (device address) space: what matters for
charge disturbance is physical adjacency after any remapping, which is
exactly the property SHADOW randomizes.

Observer contract (what the memory controller reports, in DA space):

* once, at construction -> ``bind`` with the device's geometry, the way
  the controller binds the mitigation, so neighbours and the refresh
  wrap-around follow the simulated subarray layout;
* every issued ACT -> one ``on_activate`` call, made after the
  mitigation's ACT hook, with the post-translate DA row (so a remapping
  scheme's shuffled hot rows are charged where the device actually
  activates them) and the hook's :class:`ActOutcome`, or ``None`` when
  the scheme has no ACT hook or returned nothing.  The ACT charges its
  neighbours first; then ``ActOutcome.trr_rows`` and
  ``ActOutcome.restored_rows`` go, in that order, to ``on_row_refresh``
  (targeted recharge: the row's accumulated disturbance resets);
* each RFM's mitigation outcome -> ``on_rfm_outcome``, which passes
  ``RfmOutcome.refreshed_rows`` to ``on_row_refresh`` and then
  ``RfmOutcome.copies`` to ``on_row_copy`` (disturbance and any
  injected bit flips travel with the row's content);
* each all-bank REF -> one ``on_refresh`` call with the rank's bank
  addresses in bank order and the sweep segment ``[lo, hi)`` every one
  of those banks refreshed (``hi`` may pass the bank's row count; the
  observer wraps it).

With ``refresh_hammers_neighbors`` enabled, targeted refreshes are
themselves half-rate aggressors (the Half-Double lever), so a TRR
scheme's own victim refreshes can disturb rows one further out.
Observers never return timing -- the injector is passive, and the
bench gate asserts cycle-for-cycle equality with the observer detached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dram.device import BankAddress, DramGeometry
from repro.dram.subarray import SubarrayLayout

if TYPE_CHECKING:
    from repro.mitigations.base import ActOutcome, RfmOutcome


def blast_weight(distance: int) -> float:
    """Disturbance weight of an aggressor at ``distance`` wordlines.

    Adjacent rows (distance 1) receive weight 1; the effect halves per
    additional wordline (paper Section II-D assumption 2).
    """
    if distance < 1:
        raise ValueError("distance must be at least 1")
    return 2.0 ** (1 - distance)


def blast_weight_sum(radius: int) -> float:
    """Total weight an aggressor deposits across both sides: ``W_sum``.

    For the paper's default radius of 3 this is 2*(1 + 1/2 + 1/4) = 3.5,
    matching the ``W_sum = 3.5`` default of Appendix XI.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return 2.0 * sum(blast_weight(d) for d in range(1, radius + 1))


@dataclass(frozen=True)
class HammerConfig:
    """Fault-model parameters."""

    hcnt: int = 4096          # Hammer Count threshold
    blast_radius: int = 3     # paper's baseline radius
    layout: SubarrayLayout = SubarrayLayout()
    #: A targeted (TRR) refresh is physically an activation of the
    #: refreshed row, so it disturbs *that row's* neighbours -- the
    #: mechanism Half-Double [Kogler et al., USENIX Sec'22] abuses to
    #: turn a defense's own mitigations into hammer amplification
    #: (paper Section II-C: "sometimes even abusing [47] any currently
    #: implemented RH protection scheme").  Off by default to keep the
    #: conservative defender-friendly model; the half-double experiments
    #: turn it on.
    refresh_hammers_neighbors: bool = False

    def __post_init__(self) -> None:
        if self.hcnt <= 0:
            raise ValueError("hcnt must be positive")
        # A zero radius disturbs no neighbour, so no bit could ever
        # flip and every run would read as secure.
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")


@dataclass(frozen=True)
class BitFlip:
    """A Row Hammer bit-flip event."""

    addr: BankAddress
    da_row: int
    cycle: int
    disturbance: float


#: Neighbour lists and their blast weights depend only on the
#: (immutable, hashable) layout and radius, so they are shared across
#: model instances process-wide.  Short runs touch a few hundred rows in
#: ~1000 ACTs; a per-instance memo would spend half the injector's time
#: rebuilding the same geometry every run.
_NEIGHBORS_CACHE: Dict[Tuple[SubarrayLayout, int],
                       Dict[int, List[Tuple[int, int]]]] = {}
_CHARGES_CACHE: Dict[Tuple[SubarrayLayout, int],
                     Dict[int, List[Tuple[int, float]]]] = {}


class DisturbanceModel:
    """Per-row weighted disturbance counters with reset semantics.

    Implements the observer interface the memory controller calls (see
    the module docstring): ``bind``, ``on_activate`` (one call per ACT,
    carrying the mitigation's ACT outcome), ``on_refresh`` and
    ``on_rfm_outcome``.
    """

    def __init__(self, config: HammerConfig,
                 record_all_flips: bool = False):
        self.config = config
        # Two-level: bank -> {da_row -> disturbance}.  Hashing a frozen
        # BankAddress dataclass costs more than the dict op it keys, so
        # the hot hooks hash it once per call, not once per row.
        self._counters: Dict[BankAddress, Dict[int, float]] = {}
        self.flips: List[BitFlip] = []
        self._flipped: set = set()
        self._record_all = record_all_flips
        self.total_acts = 0
        self._share_neighbor_caches()

    def _share_neighbor_caches(self) -> None:
        cache_key = (self.config.layout, self.config.blast_radius)
        self._neighbors = _NEIGHBORS_CACHE.setdefault(cache_key, {})
        self._charges = _CHARGES_CACHE.setdefault(cache_key, {})

    def bind(self, geometry: DramGeometry) -> None:
        """Adopt the simulated device's subarray layout (called once by
        the controller, before any ACT)."""
        if geometry.layout != self.config.layout:
            self.config = replace(self.config, layout=geometry.layout)
            self._share_neighbor_caches()

    def _da_neighbors(self, da_row: int) -> List[Tuple[int, int]]:
        neighbors = self._neighbors.get(da_row)
        if neighbors is None:
            neighbors = self.config.layout.da_neighbors(
                da_row, self.config.blast_radius)
            self._neighbors[da_row] = neighbors
        return neighbors

    def _da_charges(self, da_row: int) -> List[Tuple[int, float]]:
        charges = self._charges.get(da_row)
        if charges is None:
            charges = [(victim, blast_weight(distance))
                       for victim, distance in self._da_neighbors(da_row)]
            self._charges[da_row] = charges
        return charges

    # -- observer interface -------------------------------------------------------

    def on_activate(self, addr: BankAddress, da_row: int, cycle: int,
                    outcome: Optional[ActOutcome] = None) -> None:
        """Charge disturbance to the neighbours and restore the row
        itself; then apply the ACT's mitigation ``outcome``, if any: TRR
        victim refreshes, then the rows an RRS-style swap rewrote."""
        self.total_acts += 1
        bank = self._counters.get(addr)
        if bank is None:
            bank = self._counters[addr] = {}
        # Activation restores the aggressor's own cells.
        bank.pop(da_row, None)
        hcnt = self.config.hcnt
        for victim, weight in self._da_charges(da_row):
            value = bank.get(victim, 0.0) + weight
            bank[victim] = value
            if value >= hcnt:
                self._record_flip(addr, victim, cycle, value)
        if outcome is not None:
            for row in outcome.trr_rows:
                self.on_row_refresh(addr, row, cycle)
            for row in outcome.restored_rows:
                self.on_row_refresh(addr, row, cycle)

    def on_refresh(self, addrs: Sequence[BankAddress], lo: int, hi: int,
                   cycle: int) -> None:
        """One all-bank REF: auto-refresh of DA rows ``[lo, hi)``
        (wrapping modulo the bank) in every bank of ``addrs``."""
        counters = self._counters
        rows = self.config.layout.da_rows_per_bank
        for addr in addrs:
            bank = counters.get(addr)
            if bank:
                for r in range(lo, hi):
                    bank.pop(r % rows, None)

    def on_row_refresh(self, addr: BankAddress, da_row: int,
                       cycle: int) -> None:
        """Targeted refresh (TRR victim refresh, incremental refresh).

        With ``refresh_hammers_neighbors`` the refresh additionally
        charges the refreshed row's own neighbours, exactly like the
        activation it physically is (the Half-Double lever).
        """
        bank = self._counters.get(addr)
        if bank is not None:
            bank.pop(da_row, None)
        if self.config.refresh_hammers_neighbors:
            if bank is None:
                bank = self._counters[addr] = {}
            hcnt = self.config.hcnt
            for victim, weight in self._da_charges(da_row):
                value = bank.get(victim, 0.0) + weight
                bank[victim] = value
                if value >= hcnt:
                    self._record_flip(addr, victim, cycle, value)

    def on_row_copy(self, addr: BankAddress, src: int, dst: int,
                    cycle: int) -> None:
        """In-DRAM row copy: both rows end up fully restored.

        The source row's cells are sensed and restored by the copy's
        activation; the destination is written with full charge.  The
        *logical* data moved, but disturbance counters belong to physical
        cells, so both physical rows reset.
        """
        bank = self._counters.get(addr)
        if bank:
            bank.pop(src, None)
            bank.pop(dst, None)

    def on_rfm_outcome(self, addr: BankAddress, outcome: RfmOutcome,
                       cycle: int) -> None:
        """Apply one RFM's mitigation outcome: refreshed rows, then
        in-DRAM row copies."""
        for row in outcome.refreshed_rows:
            self.on_row_refresh(addr, row, cycle)
        for src, dst in outcome.copies:
            self.on_row_copy(addr, src, dst, cycle)

    # -- results --------------------------------------------------------------------

    @property
    def flipped(self) -> bool:
        return bool(self.flips)

    def first_flip(self) -> Optional[BitFlip]:
        return self.flips[0] if self.flips else None

    def disturbance(self, addr: BankAddress, da_row: int) -> float:
        bank = self._counters.get(addr)
        return bank.get(da_row, 0.0) if bank else 0.0

    def max_disturbance(self) -> float:
        return max((value for bank in self._counters.values()
                    for value in bank.values()), default=0.0)

    def reset(self) -> None:
        self._counters.clear()
        self.flips.clear()
        self._flipped.clear()
        self.total_acts = 0

    def _record_flip(self, addr: BankAddress, da_row: int, cycle: int,
                     value: float) -> None:
        key = (addr, da_row)
        if not self._record_all and key in self._flipped:
            return
        self._flipped.add(key)
        self.flips.append(BitFlip(addr, da_row, cycle, value))
