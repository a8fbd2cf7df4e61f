"""The rank refresh state the controller keeps matches its banks.

``RankTiming.open_banks`` counts the rank's open banks and
``RankTiming.ref_ready`` holds the maximum of every bank's ``next_act``
and ``busy_until``; the all-bank REF and the refresh candidate read
only these two values.  Random command sequences (ACT, PRE, RD, WR,
RFM, TRR penalties and REF) and every golden scenario must leave both
equal to what a walk over the banks computes, and a REF the state
refuses must still be a DRAM protocol violation.
"""

import random

import pytest

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.dram.device import DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import Graphene, NoMitigation, Parfm
from repro.utils.rng import SystemRng
from tests.golden.generate import SCHEMES, build_system

T = DDR4_2666
GEOMETRY = DramGeometry(
    channels=2, ranks_per_channel=2, banks_per_rank=4,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)


def check_rank_state(mc):
    for key, rank in mc.device.ranks.items():
        banks = rank.banks
        assert rank.open_banks == sum(
            bank.open_row is not None for bank in banks), key
        assert rank.ref_ready == max(
            max(bank.next_act, bank.busy_until) for bank in banks), key
        tracker = mc.refresh.get(key)
        refs = tracker.refs_issued if tracker is not None else 0
        assert sum(bank.stats.refreshes for bank in banks) == \
            len(banks) * refs, key
        # A REF with a bank open, or one cycle before the last bank is
        # ready, is refused before it changes anything.
        if rank.open_banks:
            with pytest.raises(RuntimeError, match="DRAM protocol "
                               "violation: REF requires a precharged"):
                rank.issue_ref(rank.ref_ready + T.tRAS)
        else:
            with pytest.raises(RuntimeError, match="DRAM protocol "
                               "violation: REF issued before"):
                rank.issue_ref(rank.ref_ready - 1)
    return sum(rank.open_banks for rank in mc.device.ranks.values())


class _Probe:
    """Row Hammer observer that checks the rank state right after every
    RFM and REF: a drain issues many commands, and a later command on
    the same rank could hide a stale ``ref_ready`` by the drain's end.
    (The ACT notifications fire before the ACT's own update.)"""

    def __init__(self):
        self.mc = None
        self.checks = 0

    def on_activate(self, addr, da_row, cycle):
        pass

    def on_act_outcome(self, addr, outcome, cycle):
        pass

    def on_rfm_outcome(self, addr, outcome, cycle):
        check_rank_state(self.mc)
        self.checks += 1

    def on_refresh_range(self, addr, lo, hi, cycle):
        check_rank_state(self.mc)
        self.checks += 1


def run_random(mitigation, seed, n_requests=600):
    """Enqueue random requests to a few rows per bank, with idle gaps
    long enough for REFs between bursts, and check the rank state after
    every drain, RFM and REF.  Returns the device, the controller and
    how many drains left a bank open."""
    rng = random.Random(seed)
    device = DramDevice(GEOMETRY, T)
    probe = _Probe()
    mc = MemoryController(device, mitigation, observer=probe,
                          config=McConfig())
    probe.mc = mc
    arrivals = []
    cycle = 0
    for _ in range(n_requests):
        cycle += rng.choice((0, 1, 5, 40, 200, 3000))
        location = MemoryLocation(
            rng.randrange(GEOMETRY.channels),
            rng.randrange(GEOMETRY.ranks_per_channel),
            rng.randrange(GEOMETRY.banks_per_rank),
            rng.randrange(6), rng.randrange(GEOMETRY.columns_per_row))
        arrivals.append(MemoryRequest(
            location=location, is_write=rng.random() < 0.3,
            thread_id=0, arrival=cycle))
    end = cycle + 3 * T.tREFI
    cycle = i = open_checks = 0
    while cycle <= end:
        while i < len(arrivals) and arrivals[i].arrival <= cycle:
            mc.enqueue(arrivals[i])
            i += 1
        wakes = []
        for ch in range(GEOMETRY.channels):
            _done, wake = mc.drain(ch, cycle)
            open_checks += check_rank_state(mc) > 0
            if wake is not None:
                wakes.append(wake)
        if i < len(arrivals):
            wakes.append(arrivals[i].arrival)
        cycle = max(cycle + 1, min(wakes))
    assert mc.pending_requests() == 0
    assert probe.checks
    return device, mc, open_checks


@pytest.mark.parametrize("make", [
    NoMitigation,
    lambda: Parfm(raaimt=4, rng=SystemRng(43)),
    lambda: Graphene(hcnt=8),
], ids=["none", "parfm", "graphene"])
@pytest.mark.parametrize("seed", [1, 2])
def test_random_sequences_keep_rank_state(make, seed):
    mitigation = make()
    device, mc, open_checks = run_random(mitigation, seed)
    assert open_checks
    stats = device.aggregate_stats()
    # Every command class the state depends on really issued.
    assert stats.acts and stats.precharges and stats.refreshes
    assert stats.reads and stats.writes
    if mitigation.uses_rfm:
        assert stats.rfms
    check_rank_state(mc)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_scenarios_keep_rank_state(scheme):
    system, _mitigation = build_system(scheme)
    system.run()
    check_rank_state(system.mc)
