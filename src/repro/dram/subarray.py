"""Subarray geometry and row roles.

A bank is a stack of subarrays (paper Figure 1); each subarray owns its
row buffer, which is why SHADOW can confine shuffling inside one subarray
and why subarray-pairing can overlap remapping-row access with target-row
activation (paper Section V).

SHADOW provisions, per subarray:

* ``rows_per_subarray`` ordinary rows addressable by the MC,
* one *empty row* (``Row_empt``) used as the row-shuffle bounce buffer,
  never addressable by the MC,
* one *remapping row* holding the paired subarray's PA-to-DA table,
  likewise MC-inaccessible.

This module provides the index arithmetic for those roles.  Device-address
(DA) rows are numbered bank-wide; within a bank, subarray ``s`` owns DA
rows ``[s * stride, (s+1) * stride)`` where ``stride`` counts ordinary
rows plus the empty row.  The remapping row sits on a separate wordline
next to the row buffer and is not part of the DA space (it is reached by
the dedicated RRA signal, not by an address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SubarrayLayout:
    """Static geometry of the subarrays within one bank."""

    subarrays_per_bank: int = 16
    rows_per_subarray: int = 512     # ordinary (MC-visible) rows
    has_empty_row: bool = True       # SHADOW's Row_empt slot

    def __post_init__(self) -> None:
        if self.subarrays_per_bank <= 0:
            raise ValueError("subarrays_per_bank must be positive")
        if self.rows_per_subarray <= 0:
            raise ValueError("rows_per_subarray must be positive")

    @property
    def slots_per_subarray(self) -> int:
        """DA slots per subarray (ordinary rows + the empty row if any)."""
        return self.rows_per_subarray + (1 if self.has_empty_row else 0)

    @property
    def mc_rows_per_bank(self) -> int:
        """Rows the memory controller can address per bank."""
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def da_rows_per_bank(self) -> int:
        """All DA row slots per bank, including empty rows."""
        return self.subarrays_per_bank * self.slots_per_subarray

    # -- MC-visible (PA-side) row arithmetic --------------------------------

    def subarray_of_pa(self, pa_row: int) -> int:
        """Subarray index holding MC-visible row ``pa_row``."""
        self._check_pa(pa_row)
        return pa_row // self.rows_per_subarray

    def pa_offset(self, pa_row: int) -> int:
        """Index of ``pa_row`` within its subarray (0..rows_per_subarray)."""
        self._check_pa(pa_row)
        return pa_row % self.rows_per_subarray

    def pa_row(self, subarray: int, offset: int) -> int:
        self._check_subarray(subarray)
        if not 0 <= offset < self.rows_per_subarray:
            raise ValueError("PA offset out of range")
        return subarray * self.rows_per_subarray + offset

    # -- DA-side row arithmetic ---------------------------------------------

    def subarray_of_da(self, da_row: int) -> int:
        """Subarray index holding DA slot ``da_row``."""
        self._check_da(da_row)
        return da_row // self.slots_per_subarray

    def da_offset(self, da_row: int) -> int:
        self._check_da(da_row)
        return da_row % self.slots_per_subarray

    def da_row(self, subarray: int, offset: int) -> int:
        self._check_subarray(subarray)
        if not 0 <= offset < self.slots_per_subarray:
            raise ValueError("DA offset out of range")
        return subarray * self.slots_per_subarray + offset

    def da_range(self, subarray: int) -> Tuple[int, int]:
        """Half-open DA row range ``[lo, hi)`` of a subarray."""
        self._check_subarray(subarray)
        lo = subarray * self.slots_per_subarray
        return lo, lo + self.slots_per_subarray

    def identity_da(self, pa_row: int) -> int:
        """The DA slot a PA row occupies under the factory-default mapping."""
        sub = self.subarray_of_pa(pa_row)
        return self.da_row(sub, self.pa_offset(pa_row))

    def da_neighbors(self, da_row: int, radius: int):
        """DA rows within ``radius`` wordlines of ``da_row``, with distances.

        Confined to the subarray: the threat model (paper Section II-D)
        states an aggressor does not disturb other subarrays' rows.
        Returns ``[(row, distance), ...]`` excluding ``da_row`` itself.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        lo, hi = self.da_range(self.subarray_of_da(da_row))
        neighbors = []
        for d in range(1, radius + 1):
            if da_row - d >= lo:
                neighbors.append((da_row - d, d))
            if da_row + d < hi:
                neighbors.append((da_row + d, d))
        return neighbors

    # -- validation helpers ---------------------------------------------------

    def _check_pa(self, pa_row: int) -> None:
        if not 0 <= pa_row < self.mc_rows_per_bank:
            raise ValueError(
                f"PA row {pa_row} out of range [0, {self.mc_rows_per_bank})"
            )

    def _check_da(self, da_row: int) -> None:
        if not 0 <= da_row < self.da_rows_per_bank:
            raise ValueError(
                f"DA row {da_row} out of range [0, {self.da_rows_per_bank})"
            )

    def _check_subarray(self, subarray: int) -> None:
        if not 0 <= subarray < self.subarrays_per_bank:
            raise ValueError(
                f"subarray {subarray} out of range "
                f"[0, {self.subarrays_per_bank})"
            )
