"""Bank-group-aware timing: tRRD_L/S, tCCD_L/S, geometry plumbing."""

import dataclasses

import pytest

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.dram.device import DramDevice, DramGeometry
from repro.dram.rank import RankTiming
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import NoMitigation

T = DDR4_2666


class TestGeometryGroups:
    def test_default_grouping(self):
        g = DramGeometry()
        assert g.effective_bank_groups == 4
        assert g.bank_group_of(0) == 0
        assert g.bank_group_of(1) == 1
        assert g.bank_group_of(4) == 0

    def test_small_geometry_shrinks_groups(self):
        g = DramGeometry(banks_per_rank=2)
        assert g.effective_bank_groups == 2
        assert {g.bank_group_of(0), g.bank_group_of(1)} == {0, 1}

    def test_indivisible_grouping_rejected(self):
        with pytest.raises(ValueError):
            DramGeometry(banks_per_rank=6, bank_groups=4)

    def test_out_of_range_bank(self):
        with pytest.raises(ValueError):
            DramGeometry().bank_group_of(16)


def act_accepted(acts, cycle, group=0, timing=T):
    """Whether ``RankTiming.record_act`` takes an ACT to ``group`` at
    ``cycle`` on a fresh rank that has recorded ``acts``, a list of
    ``(cycle, group)`` pairs."""
    rank = RankTiming(timing)
    for at, act_group in acts:
        rank.record_act(at, act_group)
    try:
        rank.record_act(cycle, group)
    except RuntimeError:
        return False
    return True


def make_mc(bank_groups):
    """A refresh-free controller over one rank of four banks."""
    geometry = DramGeometry(
        channels=1, ranks_per_channel=1, banks_per_rank=4,
        bank_groups=bank_groups,
        layout=SubarrayLayout(subarrays_per_bank=2, rows_per_subarray=32),
        columns_per_row=16)
    return MemoryController(DramDevice(geometry, T), NoMitigation(),
                            config=McConfig(enable_refresh=False))


def serve(mc, requests, cycle):
    """Enqueue ``requests`` (arriving at ``cycle``) and drain channel 0
    until all are served; returns the cycle of the last drain."""
    for request in requests:
        request.arrival = cycle
        mc.enqueue(request)
    while mc.pending_requests():
        _completions, wake = mc.drain(0, cycle)
        if mc.pending_requests() == 0:
            break
        cycle = wake if wake and wake > cycle else cycle + 1
    return cycle


def read(bank, column=0):
    return MemoryRequest(MemoryLocation(0, 0, bank, 1, column), False, 0, 0)


class TestRankGroupTiming:
    def test_cross_group_act_uses_trrd_s(self):
        acts = [(100, 0)]
        assert not act_accepted(acts, 100 + T.tRRD_S - 1, group=1)
        assert act_accepted(acts, 100 + T.tRRD_S, group=1)
        assert not act_accepted(acts, 100 + T.tRRD_L - 1, group=0)
        assert act_accepted(acts, 100 + T.tRRD_L, group=0)

    def test_same_group_spacing_survives_interleaving(self):
        """g0 -> g1 -> g0: the second g0 ACT still honours tRRD_L from
        the first g0 ACT, not just tRRD_S from the g1 ACT."""
        acts = [(0, 0), (T.tRRD_S, 1)]
        assert not act_accepted(acts, T.tRRD_L - 1, group=0)
        # At DDR4-2666 tRRD_S after the g1 ACT already reaches past
        # tRRD_L; a longer tRRD_L leaves the same-group rule alone to
        # refuse the ACT.
        stretched = dataclasses.replace(T, tRRD_L=3 * T.tRRD_S)
        assert 2 * T.tRRD_S < stretched.tRRD_L
        assert not act_accepted(acts, stretched.tRRD_L - 1, group=0,
                                timing=stretched)
        assert act_accepted(acts, stretched.tRRD_L, group=0,
                            timing=stretched)

    def test_column_spacing(self):
        """Row hits in two banks: the controller issues their column
        commands tCCD_L apart within a bank group and tCCD_S apart
        across groups, and ``_do_column`` refuses one any sooner."""
        # Two groups: bank 2 shares bank 0's group, bank 1 does not.
        for other_bank, spacing in ((2, T.tCCD_L), (1, T.tCCD_S)):
            mc = make_mc(bank_groups=2)
            cycle = serve(mc, [read(0), read(other_bank)], 0)  # open rows
            first, second = read(0, column=1), read(other_bank, column=1)
            serve(mc, [first, second], cycle + 100)
            earlier, later = sorted((first, second), key=lambda r: r.issued)
            assert later.issued - earlier.issued == spacing
            # A third column command to the earlier bank is as close to
            # the later one as the later one was to it.
            ctx = mc._ctx[earlier.location.bank_address]
            with pytest.raises(RuntimeError, match="tCCD"):
                mc._do_column(later.issued + spacing - 1, ctx,
                              read(earlier.location.bank, column=2))

    def test_tfaw_applies_across_groups(self):
        acts = [(i * T.tRRD_S, i % 4) for i in range(4)]
        assert not act_accepted(acts, acts[0][0] + T.tFAW - 1, group=0)
        assert act_accepted(acts, acts[0][0] + T.tFAW, group=0)


class TestSystemLevelGrouping:
    def test_cross_group_acts_faster_than_same_group(self):
        # Two requests to different banks in different groups (four
        # groups of one bank)...
        mc = make_mc(bank_groups=4)
        a, b = read(0), read(1)
        serve(mc, [a, b], 0)
        cross_delta = b.issued - a.issued
        # ...vs two banks in the same group (two groups: banks 0 and 2).
        mc = make_mc(bank_groups=2)
        c, d = read(0), read(2)
        serve(mc, [c, d], 0)
        same_delta = d.issued - c.issued
        assert cross_delta < same_delta
