"""The remapping row: SHADOW's in-DRAM PA-to-DA table (Section V-A).

One extra DRAM row per subarray stores, for each of the subarray's PA
offsets, the DA slot currently holding it, plus the empty-row pointer
and the incremental-refresh pointer.  At 512 rows per subarray this is
513 x 9 bits + 9 bits = under 578 bytes -- comfortably inside a 1 KB
row, as the paper notes.

The row is unreachable by the MC (reached only via the dedicated RRA
signal), so an attacker can never read or contaminate the mapping.
"""

from __future__ import annotations

from typing import List, Tuple


class RemappingRow:
    """The PA->DA mapping of one subarray.

    Invariant: ``pa_to_da`` together with ``empty_slot`` is always a
    bijection from {PA offsets} union {empty} onto the subarray's DA
    slots.  :meth:`check_invariants` asserts it; the shuffle choreography
    preserves it by construction.
    """

    def __init__(self, rows_per_subarray: int = 512):
        if rows_per_subarray <= 0:
            raise ValueError("rows_per_subarray must be positive")
        self.rows = rows_per_subarray
        self.slots = rows_per_subarray + 1   # ordinary rows + Row_empt
        # Factory mapping: PA offset i sits in DA slot i; the extra slot
        # is the empty row.
        self.pa_to_da: List[int] = list(range(rows_per_subarray))
        self.empty_slot: int = rows_per_subarray
        self.incr_ptr: int = 0

    # -- translation -------------------------------------------------------------

    def translate(self, pa_offset: int) -> int:
        """DA slot currently holding PA offset ``pa_offset``."""
        if not 0 <= pa_offset < self.rows:
            raise ValueError(f"PA offset {pa_offset} out of range")
        return self.pa_to_da[pa_offset]

    def occupant_of(self, da_slot: int):
        """PA offset stored in DA slot ``da_slot`` (None for the empty)."""
        if not 0 <= da_slot < self.slots:
            raise ValueError(f"DA slot {da_slot} out of range")
        if da_slot == self.empty_slot:
            return None
        return self.pa_to_da.index(da_slot)

    # -- the shuffle update (Section IV-B) ----------------------------------------

    def apply_shuffle(self, aggr_pa: int, rand_pa: int
                      ) -> List[Tuple[int, int]]:
        """Relocate ``aggr_pa`` and ``rand_pa``; returns the row copies.

        Copy 1 moves Row_rand into Row_empt; copy 2 moves Row_aggr into
        Row_rand's old slot, which leaves Row_aggr's old slot as the new
        empty row.  Returns ``[(src_slot, dst_slot), ...]`` in DA-slot
        coordinates for the fault model and the timing charge.

        When the two sampled rows coincide the operation degenerates to
        a single copy (the aggressor still moves, which is what matters
        for protection).
        """
        da_aggr = self.translate(aggr_pa)
        da_rand = self.translate(rand_pa)
        da_empt = self.empty_slot

        if aggr_pa == rand_pa:
            self.pa_to_da[aggr_pa] = da_empt
            self.empty_slot = da_aggr
            return [(da_aggr, da_empt)]

        copies = [(da_rand, da_empt), (da_aggr, da_rand)]
        self.pa_to_da[rand_pa] = da_empt
        self.pa_to_da[aggr_pa] = da_rand
        self.empty_slot = da_aggr
        return copies

    # -- bookkeeping -----------------------------------------------------------------

    def advance_incr_ptr(self) -> int:
        """Return the current incremental-refresh slot and advance it."""
        slot = self.incr_ptr
        self.incr_ptr = (self.incr_ptr + 1) % self.slots
        return slot

    def storage_bits(self) -> int:
        """Bits the remapping row must store (paper: 513 x 9 + 9)."""
        entry_bits = (self.slots - 1).bit_length()
        return (self.rows + 1) * entry_bits + entry_bits

    def check_invariants(self) -> None:
        """Assert the mapping is a bijection with exactly one empty slot."""
        claimed = set(self.pa_to_da)
        if len(claimed) != self.rows:
            raise AssertionError("two PA rows share one DA slot")
        if self.empty_slot in claimed:
            raise AssertionError("the empty slot is also claimed by a PA row")
        if claimed | {self.empty_slot} != set(range(self.slots)):
            raise AssertionError("mapping does not cover all DA slots")
        if not 0 <= self.incr_ptr < self.slots:
            raise AssertionError("incremental pointer out of range")
