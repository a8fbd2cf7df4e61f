"""Disturbance model: blast weighting, resets, flip detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import BankAddress
from repro.dram.subarray import SubarrayLayout
from repro.mitigations.base import ActOutcome
from repro.rowhammer.model import (
    BitFlip,
    DisturbanceModel,
    HammerConfig,
    blast_weight,
    blast_weight_sum,
)

LAYOUT = SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=32)
ADDR = BankAddress(0, 0, 0)


def make(hcnt=16, radius=3, record_all=False):
    return DisturbanceModel(
        HammerConfig(hcnt=hcnt, blast_radius=radius, layout=LAYOUT),
        record_all_flips=record_all)


class TestBlastWeights:
    def test_weights_halve_with_distance(self):
        assert blast_weight(1) == 1.0
        assert blast_weight(2) == 0.5
        assert blast_weight(3) == 0.25
        with pytest.raises(ValueError):
            blast_weight(0)

    def test_wsum_default_matches_paper(self):
        # Appendix XI: W_sum = 3.5 for the default radius of 3.
        assert blast_weight_sum(3) == 3.5
        assert blast_weight_sum(1) == 2.0
        assert blast_weight_sum(0) == 0.0

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=16)
    def test_wsum_is_cumulative(self, radius):
        expected = 2 * sum(blast_weight(d) for d in range(1, radius + 1))
        assert blast_weight_sum(radius) == pytest.approx(expected)


class TestAccumulation:
    def test_neighbours_charge_by_distance(self):
        model = make(radius=3)
        model.on_activate(ADDR, 10, cycle=0)
        assert model.disturbance(ADDR, 11) == 1.0
        assert model.disturbance(ADDR, 12) == 0.5
        assert model.disturbance(ADDR, 13) == 0.25
        assert model.disturbance(ADDR, 14) == 0.0
        assert model.disturbance(ADDR, 9) == 1.0

    def test_aggressor_self_restores(self):
        model = make()
        model.on_activate(ADDR, 10, cycle=0)
        model.on_activate(ADDR, 12, cycle=1)   # charges row 10 (d=2)
        model.on_activate(ADDR, 10, cycle=2)   # re-activating resets row 10
        assert model.disturbance(ADDR, 10) == 0.0

    def test_no_cross_subarray_disturbance(self):
        model = make(radius=3)
        # Last row of subarray 0 (DA 32 with 33 slots... row 32 is the
        # empty slot; ordinary last row is DA 31).
        edge = 32   # the empty-row slot, last DA of subarray 0
        model.on_activate(ADDR, edge, cycle=0)
        # DA 33 belongs to subarray 1: must be untouched.
        assert model.disturbance(ADDR, 33) == 0.0
        assert model.disturbance(ADDR, 31) == 1.0

    def test_flip_at_threshold(self):
        model = make(hcnt=5, radius=1)
        for i in range(5):
            model.on_activate(ADDR, 10, cycle=i)
        assert model.flipped
        flip = model.first_flip()
        assert isinstance(flip, BitFlip)
        assert flip.da_row in (9, 11)
        assert flip.disturbance >= 5

    def test_flip_requires_weighted_threshold_at_distance(self):
        model = make(hcnt=4, radius=2)
        # Hammering at distance 2 contributes 0.5 per ACT: needs 8 ACTs.
        for i in range(7):
            model.on_activate(ADDR, 10, cycle=i)
        assert model.disturbance(ADDR, 12) == 3.5
        model.on_activate(ADDR, 10, cycle=7)
        assert any(f.da_row == 12 for f in model.flips) or \
            any(f.da_row in (9, 11) for f in model.flips)

    def test_duplicate_flips_deduplicated(self):
        model = make(hcnt=3, radius=1)
        for i in range(10):
            model.on_activate(ADDR, 10, cycle=i)
        rows = [f.da_row for f in model.flips]
        assert len(rows) == len(set(rows))

    def test_record_all_flips(self):
        model = make(hcnt=3, radius=1, record_all=True)
        for i in range(6):
            model.on_activate(ADDR, 10, cycle=i)
        rows = [f.da_row for f in model.flips]
        assert len(rows) > len(set(rows))


class TestResets:
    def test_row_refresh_resets(self):
        model = make(hcnt=100)
        for i in range(10):
            model.on_activate(ADDR, 10, cycle=i)
        model.on_row_refresh(ADDR, 11, cycle=10)
        assert model.disturbance(ADDR, 11) == 0.0
        assert model.disturbance(ADDR, 9) > 0.0

    def test_refresh_range_resets_with_wrap(self):
        model = make(hcnt=100)
        rows = LAYOUT.da_rows_per_bank
        model.on_activate(ADDR, 10, cycle=0)
        model.on_activate(ADDR, 2, cycle=1)
        # A wrapping range [rows - 1, rows + 4) covers rows 0..3.
        model.on_refresh((ADDR,), rows - 1, rows + 4, cycle=2)
        assert model.disturbance(ADDR, 1) == 0.0
        assert model.disturbance(ADDR, 3) == 0.0
        assert model.disturbance(ADDR, 11) == 1.0

    def test_row_copy_resets_both(self):
        model = make(hcnt=100)
        model.on_activate(ADDR, 10, cycle=0)
        model.on_row_copy(ADDR, 9, 11, cycle=1)
        assert model.disturbance(ADDR, 9) == 0.0
        assert model.disturbance(ADDR, 11) == 0.0

    @pytest.mark.parametrize("field", ["trr_rows", "restored_rows"])
    def test_act_outcome_applies_after_the_charge(self, field):
        # The ACT that pushes victim 11 to hcnt also refreshes it: the
        # flip is recorded first, then the refresh resets the row.
        model = make(hcnt=4, radius=1)
        for i in range(3):
            model.on_activate(ADDR, 10, cycle=i)
        assert not model.flipped
        model.on_activate(ADDR, 10, 3, ActOutcome(**{field: [11]}))
        assert [(f.da_row, f.cycle) for f in model.flips] == [(9, 3),
                                                              (11, 3)]
        assert model.disturbance(ADDR, 11) == 0.0
        assert model.disturbance(ADDR, 9) == 4.0

    def test_reset_clears_everything(self):
        model = make(hcnt=2, radius=1)
        for i in range(5):
            model.on_activate(ADDR, 10, cycle=i)
        assert model.flipped
        model.reset()
        assert not model.flipped
        assert model.total_acts == 0
        assert model.max_disturbance() == 0.0


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            HammerConfig(hcnt=0)
        with pytest.raises(ValueError):
            HammerConfig(hcnt=10, blast_radius=-1)

    @pytest.mark.parametrize("radius", [0, -1])
    def test_blast_radius_below_one_is_rejected(self, radius):
        # Radius 0 has no neighbours (``da_neighbors(row, 0) == []``), so
        # the model could never flip a bit.
        assert LAYOUT.da_neighbors(40, 0) == []
        with pytest.raises(ValueError, match="blast_radius"):
            HammerConfig(hcnt=10, blast_radius=radius)


class TestIncrementalRefreshSweep:
    """Regression: a REF-by-REF sweep must reset every DA it covers.

    The controller refreshes each bank in consecutive ``[lo, hi)``
    windows (wrapping modulo the bank); after one full pass every
    accumulated counter must be gone.  Runs against both the base model
    and the FaultInjector subclass, which adds a scrub to the sweep.
    """

    def _models(self, hcnt=10**6):
        from repro.faults.inject import FaultInjector
        config = HammerConfig(hcnt=hcnt, blast_radius=3, layout=LAYOUT)
        return [DisturbanceModel(config), FaultInjector(config)]

    def test_swept_das_reset_unswept_keep_accumulating(self):
        for model in self._models():
            for i in range(8):
                model.on_activate(ADDR, 10, cycle=i)   # victims 7..13
            model.on_refresh((ADDR,), 7, 11, cycle=8)
            for row in (7, 8, 9, 10):
                assert model.disturbance(ADDR, row) == 0.0
            for row in (11, 12, 13):
                assert model.disturbance(ADDR, row) > 0.0

    def test_full_incremental_pass_clears_the_bank(self):
        rows = LAYOUT.da_rows_per_bank
        window = 16
        for model in self._models():
            for i in range(8):
                model.on_activate(ADDR, 10, cycle=i)
                model.on_activate(ADDR, 40, cycle=i)
            assert model.max_disturbance() > 0.0
            # One tREFW worth of REFs: consecutive wrapping windows.
            lo = rows - 5                 # start mid-wrap on purpose
            for _ in range((rows + window - 1) // window + 1):
                model.on_refresh((ADDR,), lo, lo + window, cycle=9)
                lo = (lo + window) % rows
            assert model.max_disturbance() == 0.0

    def test_sweep_only_touches_the_named_bank(self):
        other = BankAddress(0, 0, 1)
        for model in self._models():
            model.on_activate(ADDR, 10, cycle=0)
            model.on_activate(other, 10, cycle=0)
            model.on_refresh((ADDR,), 0, LAYOUT.da_rows_per_bank, cycle=1)
            assert model.disturbance(ADDR, 11) == 0.0
            assert model.disturbance(other, 11) == 1.0

    def test_one_call_sweeps_every_named_bank(self):
        # An all-bank REF is one call with the rank's banks.
        banks = [BankAddress(0, 0, b) for b in range(3)]
        spare = BankAddress(0, 0, 3)
        for model in self._models():
            for addr in banks + [spare]:
                model.on_activate(addr, 10, cycle=0)
            model.on_refresh(banks, 9, 12, cycle=1)
            for addr in banks:
                assert model.disturbance(addr, 11) == 0.0
                assert model.disturbance(addr, 12) > 0.0
            assert model.disturbance(spare, 11) == 1.0
