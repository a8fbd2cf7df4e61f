"""Timing parameter sets and conversions."""

import dataclasses

import pytest

from repro.dram.timing import DDR4_2666, DDR5_4800, TimingParams, ns_to_cycles
from repro.spec import TimingSpec


def test_ns_to_cycles_rounds_up():
    assert ns_to_cycles(0.0, 0.75) == 0
    assert ns_to_cycles(0.75, 0.75) == 1
    assert ns_to_cycles(0.76, 0.75) == 2
    assert ns_to_cycles(32.0, 0.75) == 43
    with pytest.raises(ValueError):
        ns_to_cycles(-1.0, 0.75)
    with pytest.raises(ValueError):
        ns_to_cycles(1.0, 0.0)


def test_ddr4_matches_paper_table4():
    t = DDR4_2666
    assert (t.tCL, t.tRCD, t.tRP) == (19, 19, 19)
    assert t.tRFC == 467
    assert t.tREFI == 10400
    assert t.tck_ns == 0.75
    # tREFW = 64 ms.
    assert abs(t.nanoseconds(t.tREFW) - 64e6) < t.tck_ns


def test_ddr5_sanity():
    t = DDR5_4800
    assert t.tck_ns == pytest.approx(1 / 2.4)
    assert t.nanoseconds(t.tRCD) >= 16.0 - t.tck_ns
    assert abs(t.nanoseconds(t.tREFW) - 32e6) < t.tck_ns
    assert t.tREFI < t.tREFW


def test_trc_is_tras_plus_trp():
    for t in (DDR4_2666, DDR5_4800):
        assert t.tRC == t.tRAS + t.tRP


def test_refreshes_per_window():
    t = DDR4_2666
    # 64 ms / 7.8 us = 8192 refreshes per window.
    assert t.refreshes_per_window == t.tREFW // t.tREFI
    assert 8000 <= t.refreshes_per_window <= 8400


def test_with_trcd_and_trefi():
    t = DDR4_2666.with_trcd(23)
    assert t.tRCD == 23
    t2 = DDR4_2666.with_refresh_interval(5200)
    assert t2.tREFI == 5200
    assert t2.refreshes_per_window == 2 * DDR4_2666.refreshes_per_window


def test_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(DDR4_2666, raaimt=0)
    with pytest.raises(ValueError):
        TimingParams(
            name="bad", tck_ns=1.0, tCL=10, tRCD=10, tRP=10, tRAS=20,
            tWR=10, tRTP=5, tBL=4, tCWL=8, tCCD_L=4, tCCD_S=2, tRRD_L=4,
            tRRD_S=2, tFAW=16, tWTR_L=6, tWTR_S=2, tRFC=100,
            tREFI=1000, tREFW=500, tRFM=100,   # tREFI > tREFW
        )


def test_cycles_roundtrip():
    t = DDR5_4800
    assert t.cycles(t.nanoseconds(123)) == 123


def test_act_extra_override_is_refused():
    # tRCD' (tRCD plus the remapping-row read) reaches the controller
    # only through the mitigation's act_extra_cycles; a timing override
    # that claimed to set it would change nothing the simulator runs.
    with pytest.raises(TypeError, match="act_extra"):
        TimingSpec("DDR4-2666", {"act_extra": 6}).build()
