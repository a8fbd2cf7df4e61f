"""Subarray layout arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.subarray import SubarrayLayout

LAYOUT = SubarrayLayout(subarrays_per_bank=16, rows_per_subarray=512)


class TestLayout:
    def test_slot_counts(self):
        assert LAYOUT.slots_per_subarray == 513
        assert LAYOUT.mc_rows_per_bank == 16 * 512
        assert LAYOUT.da_rows_per_bank == 16 * 513

    def test_no_empty_row_variant(self):
        plain = SubarrayLayout(has_empty_row=False)
        assert plain.slots_per_subarray == plain.rows_per_subarray

    @given(st.integers(min_value=0, max_value=LAYOUT.mc_rows_per_bank - 1))
    @settings(max_examples=50)
    def test_pa_roundtrip(self, pa_row):
        sub = LAYOUT.subarray_of_pa(pa_row)
        off = LAYOUT.pa_offset(pa_row)
        assert LAYOUT.pa_row(sub, off) == pa_row

    @given(st.integers(min_value=0, max_value=LAYOUT.da_rows_per_bank - 1))
    @settings(max_examples=50)
    def test_da_roundtrip(self, da_row):
        sub = LAYOUT.subarray_of_da(da_row)
        off = LAYOUT.da_offset(da_row)
        assert LAYOUT.da_row(sub, off) == da_row

    def test_identity_da_lands_in_same_subarray(self):
        for pa in (0, 511, 512, 8191):
            da = LAYOUT.identity_da(pa)
            assert LAYOUT.subarray_of_da(da) == LAYOUT.subarray_of_pa(pa)
            assert LAYOUT.da_offset(da) == LAYOUT.pa_offset(pa)

    def test_da_range(self):
        lo, hi = LAYOUT.da_range(3)
        assert hi - lo == 513
        assert LAYOUT.subarray_of_da(lo) == 3
        assert LAYOUT.subarray_of_da(hi - 1) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LAYOUT.subarray_of_pa(LAYOUT.mc_rows_per_bank)
        with pytest.raises(ValueError):
            LAYOUT.subarray_of_da(-1)
        with pytest.raises(ValueError):
            LAYOUT.da_row(0, 513)
