"""Rank/channel constraints, device composition, refresh tracker."""

import pytest

from repro.dram.channel import ChannelTiming
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.refresh import RefreshTracker, emulated_trefi
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from tests.test_bank_groups import act_accepted

T = DDR4_2666


class TestRankTiming:
    def test_trrd_enforced(self):
        assert not act_accepted([(100, 0)], 100 + T.tRRD_L - 1)
        assert act_accepted([(100, 0)], 100 + T.tRRD_L)

    def test_tfaw_enforced(self):
        times = [0, T.tRRD_L, 2 * T.tRRD_L, 3 * T.tRRD_L]
        acts = [(t, 0) for t in times]
        # Fifth ACT must wait until the first leaves the tFAW window.
        expected = max(times[-1] + T.tRRD_L, times[0] + T.tFAW)
        assert not act_accepted(acts, expected - 1)
        assert act_accepted(acts, expected)


class TestChannelTiming:
    def test_command_bus_one_per_cycle(self):
        ch = ChannelTiming()
        ch.record_command(10)
        assert ch.earliest_command(10) == 11
        with pytest.raises(RuntimeError):
            ch.record_command(10)

    def test_data_bus_occupancy(self):
        ch = ChannelTiming()
        ch.record_data(start=50, burst=4)
        assert ch.earliest_data(50) == 54
        with pytest.raises(RuntimeError):
            ch.record_data(53, 4)

    def test_channel_blocking(self):
        ch = ChannelTiming()
        end = ch.block(cycle=100, duration=5000)
        assert end == 5100
        assert ch.earliest_command(100) == 5100
        assert ch.earliest_data(100) == 5100
        assert ch.blocked_cycles == 5000
        # Blocks queue up back-to-back.
        assert ch.block(0, 100) == 5200


class TestDeviceComposition:
    def test_geometry_counts(self):
        g = DramGeometry(channels=2, ranks_per_channel=2, banks_per_rank=4)
        assert g.total_banks == 16
        assert g.rows_per_bank == g.layout.mc_rows_per_bank
        assert len(list(g.bank_addresses())) == 16

    def test_device_lookup_and_validation(self):
        g = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=2,
                         layout=SubarrayLayout(subarrays_per_bank=2,
                                               rows_per_subarray=16))
        dev = DramDevice(g, T)
        addr = BankAddress(0, 0, 1)
        assert dev.bank(addr) is dev.banks[addr]
        with pytest.raises(ValueError):
            dev.bank(BankAddress(0, 0, 2))
        with pytest.raises(ValueError):
            dev.channel(1)

    def test_aggregate_stats(self):
        g = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=2)
        dev = DramDevice(g, T)
        dev.bank(BankAddress(0, 0, 0)).issue_act(1, 0)
        dev.bank(BankAddress(0, 0, 1)).issue_act(2, 0)
        assert dev.aggregate_stats().acts == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            DramGeometry(channels=0)


class TestRefreshTracker:
    def test_rolling_pointer_covers_all_rows(self):
        tracker = RefreshTracker(T, rows_per_bank=8192)
        covered = set()
        cycle = 0
        for _ in range(T.refreshes_per_window):
            cycle = tracker.next_due
            lo, hi = tracker.record_ref(cycle)
            for r in range(lo, hi):
                covered.add(r % 8192)
        assert covered == set(range(8192))

    def test_due_schedule(self):
        tracker = RefreshTracker(T, rows_per_bank=1024)
        assert not tracker.is_due(T.tREFI - 1)
        assert tracker.is_due(T.tREFI)
        tracker.record_ref(T.tREFI)
        assert tracker.next_due == 2 * T.tREFI

    def test_reanchors_when_late(self):
        tracker = RefreshTracker(T, rows_per_bank=1024)
        late = 10 * T.tREFI
        tracker.record_ref(late)
        assert tracker.next_due == late + T.tREFI

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            RefreshTracker(T, rows_per_bank=0)


class TestEmulatedTrefi:
    def test_no_rfm_means_no_change(self):
        assert emulated_trefi(T, acts_per_window=0, raaimt=64) == T.tREFI

    def test_more_acts_shrink_trefi(self):
        a = emulated_trefi(T, acts_per_window=100_000, raaimt=64)
        b = emulated_trefi(T, acts_per_window=1_000_000, raaimt=64)
        assert b < a < T.tREFI

    def test_lower_raaimt_shrinks_trefi(self):
        a = emulated_trefi(T, acts_per_window=500_000, raaimt=128)
        b = emulated_trefi(T, acts_per_window=500_000, raaimt=32)
        assert b < a

    def test_matches_equation_one(self):
        acts, raaimt = 819_200, 64
        n_ref = T.refreshes_per_window
        n_rfm = acts / raaimt
        expected = int(T.tREFI * T.tRFC / (T.tRFC + T.tRFM * n_rfm / n_ref))
        assert emulated_trefi(T, acts, raaimt) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            emulated_trefi(T, acts_per_window=-1, raaimt=64)
        with pytest.raises(ValueError):
            emulated_trefi(T, acts_per_window=10, raaimt=0)
