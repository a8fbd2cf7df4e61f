"""SHADOW core: remapping row, shuffle choreography, controller, timings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SECURE_RAAIMT, ShadowConfig, secure_raaimt
from repro.core.controller import ShadowBankController
from repro.core.incremental import IncrementalRefresh
from repro.core.pairing import ShadowTimings
from repro.core.remapping import RemappingRow
from repro.core.shadow import Shadow
from repro.core.shuffle import plan_shuffle
from repro.dram.device import BankAddress, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666, DDR5_4800
from repro.utils.rng import SystemRng

LAYOUT = SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=16)


class TestRemappingRow:
    def test_factory_identity(self):
        remap = RemappingRow(8)
        assert [remap.translate(i) for i in range(8)] == list(range(8))
        assert remap.empty_slot == 8
        remap.check_invariants()

    def test_shuffle_moves_both_rows(self):
        remap = RemappingRow(8)
        copies = remap.apply_shuffle(aggr_pa=2, rand_pa=5)
        # Copy 1: Row_rand (slot 5) -> old empty (slot 8).
        # Copy 2: Row_aggr (slot 2) -> Row_rand's old slot (5).
        assert copies == [(5, 8), (2, 5)]
        assert remap.translate(5) == 8
        assert remap.translate(2) == 5
        assert remap.empty_slot == 2
        remap.check_invariants()

    def test_degenerate_shuffle_single_copy(self):
        remap = RemappingRow(8)
        copies = remap.apply_shuffle(aggr_pa=3, rand_pa=3)
        assert copies == [(3, 8)]
        assert remap.translate(3) == 8
        assert remap.empty_slot == 3
        remap.check_invariants()

    def test_occupant_of(self):
        remap = RemappingRow(8)
        remap.apply_shuffle(1, 4)
        assert remap.occupant_of(remap.translate(1)) == 1
        assert remap.occupant_of(remap.empty_slot) is None

    def test_storage_matches_paper(self):
        remap = RemappingRow(512)
        # Paper Section V-A: 513 x 9 bits + 9-bit incremental pointer.
        assert remap.storage_bits() == 513 * 10 + 10 or \
            remap.storage_bits() == 513 * 9 + 9 + 9

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                    min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_mapping_stays_bijective_under_any_shuffles(self, pairs):
        remap = RemappingRow(16)
        for aggr, rand in pairs:
            remap.apply_shuffle(aggr, rand)
            remap.check_invariants()
        # Every PA row is still reachable and distinct.
        slots = [remap.translate(i) for i in range(16)]
        assert len(set(slots)) == 16

    def test_incr_ptr_round_robin(self):
        remap = RemappingRow(4)
        slots = [remap.advance_incr_ptr() for _ in range(6)]
        assert slots == [0, 1, 2, 3, 4, 0]


class TestIncrementalRefresh:
    def test_sweeps_all_slots(self):
        remap = RemappingRow(4)
        incr = IncrementalRefresh(remap)
        assert [incr.step() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert incr.refreshes == 5
        assert incr.window_rfm_intervals() == 5

    def test_disabled(self):
        incr = IncrementalRefresh(RemappingRow(4), enabled=False)
        assert incr.step() == -1
        assert incr.refreshes == 0


class TestPlanShuffle:
    def test_prefers_recent_activations(self):
        rng = SystemRng(1)
        plan = plan_shuffle([(2, 7)], 16, 4, rng)
        assert plan.subarray == 2
        assert plan.aggr_pa_offset == 7

    def test_uniform_over_history(self):
        rng = SystemRng(2)
        history = [(0, i) for i in range(8)]
        picks = {plan_shuffle(history, 16, 4, rng).aggr_pa_offset
                 for _ in range(100)}
        assert len(picks) >= 6

    def test_empty_history_falls_back_to_random(self):
        rng = SystemRng(3)
        plan = plan_shuffle([], 16, 4, rng)
        assert 0 <= plan.subarray < 4
        assert 0 <= plan.aggr_pa_offset < 16

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shuffle([], 0, 4, SystemRng(0))


class TestShadowTimings:
    def test_trcd_prime_matches_paper_ddr4(self):
        st_ = ShadowTimings(DDR4_2666)
        # Paper Fig. 9: SHADOW's default tRCD' is 25 tCK at DDR4-2666.
        assert st_.trcd_prime_cycles == 25
        assert st_.act_extra_cycles == 6

    def test_rfm_work_matches_paper(self):
        # Section VII-B: 178 ns at DDR4-2666 and 186 ns at DDR5-4800.
        ddr4 = ShadowTimings(DDR4_2666).rfm_work_ns()
        ddr5 = ShadowTimings(DDR5_4800).rfm_work_ns()
        assert abs(ddr4 - 178) < 6
        assert abs(ddr5 - 186) < 6

    def test_rfm_work_fits_in_trfm(self):
        for timing in (DDR4_2666, DDR5_4800):
            st_ = ShadowTimings(timing)
            assert st_.rfm_work_cycles() <= timing.tRFM

    def test_no_pairing_ablation_is_slower(self):
        paired = ShadowTimings(DDR4_2666)
        unpaired = ShadowTimings(DDR4_2666, pairing=False)
        assert unpaired.act_extra_cycles > paired.act_extra_cycles
        assert unpaired.rfm_work_cycles() > paired.rfm_work_cycles()

    def test_no_isolation_ablation_is_slower(self):
        isolated = ShadowTimings(DDR4_2666)
        plain = ShadowTimings(DDR4_2666, isolation=False)
        assert plain.act_extra_cycles > isolated.act_extra_cycles

    def test_incremental_refresh_cost(self):
        with_ir = ShadowTimings(DDR4_2666)
        without = ShadowTimings(DDR4_2666, incremental_refresh=False)
        delta = with_ir.rfm_work_cycles() - without.rfm_work_cycles()
        assert delta == DDR4_2666.tRAS + DDR4_2666.tRP

    def test_copies_validation(self):
        st_ = ShadowTimings(DDR4_2666)
        with pytest.raises(ValueError):
            st_.rfm_work_cycles(copies=-1)


class TestShadowConfig:
    def test_secure_raaimt_table(self):
        assert SECURE_RAAIMT[4096] == 64
        assert secure_raaimt(4096) == 64
        assert secure_raaimt(1024) == 16   # extrapolated hcnt/64

    def test_for_hcnt(self):
        cfg = ShadowConfig.for_hcnt(2048)
        assert cfg.raaimt == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowConfig(raaimt=0)
        with pytest.raises(ValueError):
            ShadowConfig(rng_kind="dice")
        with pytest.raises(ValueError):
            secure_raaimt(0)


class TestBankController:
    def make(self, raaimt=8):
        return ShadowBankController(LAYOUT, raaimt=raaimt,
                                    rng=SystemRng(11))

    def test_translate_identity_initially(self):
        ctrl = self.make()
        for pa in range(LAYOUT.mc_rows_per_bank):
            assert ctrl.translate(pa) == LAYOUT.identity_da(pa)

    def test_rfm_shuffles_recent_aggressor(self):
        ctrl = self.make()
        for _ in range(8):
            ctrl.record_activation(5)   # subarray 0, offset 5
        refreshed, copies = ctrl.run_rfm()
        assert ctrl.shuffles == 1
        # The aggressor had to be row 5; its DA changed.
        assert ctrl.translate(5) != LAYOUT.identity_da(5)
        assert copies  # at least one row copy happened
        assert len(refreshed) == 1  # incremental refresh ran

    def test_history_cleared_each_rfm(self):
        ctrl = self.make(raaimt=4)
        for _ in range(4):
            ctrl.record_activation(3)
        ctrl.run_rfm()
        assert ctrl._recent == []

    def test_history_bounded_by_raaimt(self):
        ctrl = self.make(raaimt=4)
        for i in range(10):
            ctrl.record_activation(i % 16)
        assert len(ctrl._recent) == 4

    def test_rfm_without_history_still_shuffles(self):
        ctrl = self.make()
        refreshed, copies = ctrl.run_rfm()
        assert ctrl.shuffles == 1
        ctrl.check_invariants()

    def test_translations_remain_bijective_under_stress(self):
        ctrl = self.make(raaimt=4)
        rng = SystemRng(5)
        for step in range(200):
            ctrl.record_activation(rng.randrange(LAYOUT.mc_rows_per_bank))
            if step % 4 == 3:
                ctrl.run_rfm()
        ctrl.check_invariants()
        for sub in range(LAYOUT.subarrays_per_bank):
            das = {ctrl.translate(LAYOUT.pa_row(sub, off))
                   for off in range(LAYOUT.rows_per_subarray)}
            assert len(das) == LAYOUT.rows_per_subarray

    def test_requires_empty_row(self):
        plain = SubarrayLayout(has_empty_row=False)
        with pytest.raises(ValueError):
            ShadowBankController(plain, raaimt=8, rng=SystemRng(0))


class TestShadowMitigation:
    def test_bind_rejects_missing_empty_row(self):
        shadow = Shadow(ShadowConfig(rng_kind="system"))
        geometry = DramGeometry(
            layout=SubarrayLayout(has_empty_row=False))
        with pytest.raises(ValueError):
            shadow.bind(geometry, DDR4_2666)

    def test_per_bank_controllers_independent_streams(self):
        shadow = Shadow(ShadowConfig(raaimt=4, rng_kind="system"))
        geometry = DramGeometry(channels=1, ranks_per_channel=1,
                                banks_per_rank=2, layout=LAYOUT)
        shadow.bind(geometry, DDR4_2666)
        a = shadow.controller(BankAddress(0, 0, 0))
        b = shadow.controller(BankAddress(0, 0, 1))
        assert a is not b
        a.run_rfm()
        b.run_rfm()
        # Streams differ (overwhelmingly likely under distinct keys).
        assert (a.remapping_row(0).pa_to_da != b.remapping_row(0).pa_to_da
                or a.remapping_row(1).pa_to_da != b.remapping_row(1).pa_to_da
                or a.remapping_row(2).pa_to_da != b.remapping_row(2).pa_to_da)

    def test_use_before_bind_rejected(self):
        shadow = Shadow()
        with pytest.raises(RuntimeError):
            _ = shadow.act_extra_cycles
        with pytest.raises(RuntimeError):
            shadow.translate(BankAddress(0, 0, 0), 0)
