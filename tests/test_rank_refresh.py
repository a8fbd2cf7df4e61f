"""The rank refresh state the controller keeps matches its banks.

``RankTiming.open_banks`` counts the rank's open banks,
``RankTiming.ref_until`` is the end of the rank's last REF and
``RankTiming.refs`` counts its REFs; a REF writes no bank.  A bank's
effective ACT/RFM readiness, ``max(next_act, busy_until, ref_until)``,
must equal what the per-bank REF rule (``_reference_ref``, replayed on a
mirror bank per REF) gives, and ``RankTiming.ref_ready`` must hold the
maximum of it over the rank.  Random command sequences (ACT, PRE, RD,
WR, RFM, TRR penalties and REF) and every golden scenario must keep all
of this, and a REF, ACT or RFM the rank state refuses must still be a
DRAM protocol violation.
"""

import random
from dataclasses import replace

import pytest

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.core import Shadow, ShadowConfig
from repro.dram.bank import Bank
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import (
    DoubleRefreshRate,
    Graphene,
    NoMitigation,
    Parfm,
)
from repro.sim import System, SystemConfig
from repro.utils.rng import SystemRng
from repro.workloads.trace import WorkloadProfile
from tests.golden.generate import SCHEMES, build_system, run_captured
from tests.test_dram_bank import _reference_ref

T = DDR4_2666
GEOMETRY = DramGeometry(
    channels=2, ranks_per_channel=2, banks_per_rank=4,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)


def check_rank_state(mc, mirrors):
    """Check every rank against its banks and against ``mirrors``: one
    Bank per address that has taken every REF of its rank by the
    per-bank rule and no other command.  Returns how many banks are
    open."""
    device = mc.device
    refreshed = 0
    for key, rank in device.ranks.items():
        banks = rank.banks
        assert rank.open_banks == sum(
            bank.open_row is not None for bank in banks), key
        refs = rank.refs
        refreshed += refs * len(banks)
        chan = device.channels[key[0]]
        ready = []
        for index, bank in enumerate(banks):
            addr = BankAddress(key[0], key[1], index)
            effective = max(bank.next_act, bank.busy_until, rank.ref_until)
            mirror = mirrors.get(addr)
            reference = max(bank.next_act, bank.busy_until)
            if mirror is None:
                assert refs == 0, key
            else:
                assert mirror.stats.refreshes == refs, key
                reference = max(reference, mirror.next_act,
                                mirror.busy_until)
            assert effective == reference, addr
            ready.append(effective)
            if bank.open_row is None:
                # A closed bank's RFM waits for exactly this readiness.
                # (With REF credit equal to RAAIMT no bank is RFM-due
                # during a REF, so the scheduler alone never shows it.)
                cand = mc._rfm_candidate(mc._ctx[addr], chan)
                assert cand[0] == chan.earliest_command(effective), addr
        assert rank.ref_ready == max(ready), key
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
        if refs:
            # So is an ACT or an RFM one cycle before the REF completes.
            with pytest.raises(RuntimeError, match="DRAM protocol "
                               "violation: ACT issued during the rank's "
                               "REF"):
                rank.record_act(rank.ref_until - 1)
            ctx = mc._ctx[BankAddress(key[0], key[1], 0)]
            with pytest.raises(RuntimeError, match="DRAM protocol "
                               "violation: RFM issued during the rank's "
                               "REF"):
                mc._do_rfm(rank.ref_until - 1, ctx)
    assert device.aggregate_stats().refreshes == refreshed
    return sum(rank.open_banks for rank in device.ranks.values())


class _Probe:
    """Row Hammer observer that replays each REF on its banks' mirrors
    by the per-bank rule, and checks the rank state right after every
    RFM and every REF: a drain issues many commands, and a later
    command on the same rank could hide a stale ``ref_ready`` by the
    drain's end.  (The ACT notifications fire before the ACT's own
    update.)"""

    def __init__(self):
        self.mc = None
        self.mirrors = {}
        self.checks = 0

    def bind(self, geometry):
        pass

    def on_activate(self, addr, da_row, cycle, outcome=None):
        pass

    def on_rfm_outcome(self, addr, outcome, cycle):
        check_rank_state(self.mc, self.mirrors)
        self.checks += 1

    def on_refresh(self, addrs, lo, hi, cycle):
        for addr in addrs:
            mirror = self.mirrors.get(addr)
            if mirror is None:
                self.mirrors[addr] = mirror = Bank(T)
            _reference_ref(mirror, cycle)
        check_rank_state(self.mc, self.mirrors)
        self.checks += 1


def run_random(mitigation, seed, n_requests=600):
    """Enqueue random requests to a few rows per bank, with idle gaps
    long enough for REFs between bursts, and check the rank state after
    every drain, RFM and REF.  Returns the device, the controller, the
    probe and how many drains left a bank open."""
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
            open_checks += check_rank_state(mc, probe.mirrors) > 0
            if wake is not None:
                wakes.append(wake)
        if i < len(arrivals):
            wakes.append(arrivals[i].arrival)
        cycle = max(cycle + 1, min(wakes))
    assert mc.pending_requests() == 0
    assert probe.checks
    return device, mc, probe, open_checks


@pytest.mark.parametrize("make", [
    NoMitigation,
    lambda: Parfm(raaimt=4, rng=SystemRng(43)),
    lambda: Graphene(hcnt=8),
], ids=["none", "parfm", "graphene"])
@pytest.mark.parametrize("seed", [1, 2])
def test_random_sequences_keep_rank_state(make, seed):
    mitigation = make()
    device, mc, probe, open_checks = run_random(mitigation, seed)
    assert open_checks
    stats = device.aggregate_stats()
    # Every command class the state depends on really issued.
    assert stats.acts and stats.precharges and stats.refreshes
    assert stats.reads and stats.writes
    if mitigation.uses_rfm:
        assert stats.rfms
    check_rank_state(mc, probe.mirrors)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_scenarios_keep_rank_state(scheme):
    probe = _Probe()
    system, _mitigation = build_system(scheme, observer=probe)
    probe.mc = system.mc
    system.run()
    check_rank_state(system.mc, probe.mirrors)


# -- REF order between the ranks of one channel --------------------------------------

#: Sparse traffic: a run spans about eight tREFI, and at every tick both
#: ranks of a channel fall due at once.
_SPARSE_PIN = WorkloadProfile(
    name="multi-rank-sparse", mpki=0.5, row_buffer_locality=0.3,
    write_fraction=0.25, footprint_pages=128)
#: Denser traffic: banks are still open at some ticks, so PREs close the
#: second rank while the first one takes its REF.
_DENSE_PIN = replace(_SPARSE_PIN, name="multi-rank-dense", mpki=8.0)

_PIN_SCENARIOS = {
    "none": (NoMitigation, _SPARSE_PIN, 200),
    "parfm": (lambda: Parfm(raaimt=4, rng=SystemRng(43)), _SPARSE_PIN, 200),
    "shadow": (lambda: Shadow(ShadowConfig(
        raaimt=4, rng_kind="system", rng_seed=5)), _SPARSE_PIN, 200),
    "drr": (DoubleRefreshRate, _SPARSE_PIN, 200),
    "parfm-dense": (lambda: Parfm(raaimt=8, rng=SystemRng(43)),
                    _DENSE_PIN, 1000),
}


def _run_pin(scenario, events=None):
    make, profile, requests = _PIN_SCENARIOS[scenario]
    system = System([profile, profile], make(), config=SystemConfig(
        geometry=GEOMETRY, seed=7, requests_per_thread=requests))
    result, digest, n_events = run_captured(system, events=events)
    stats = result.stats
    return {
        "sha256": digest,
        "events": n_events,
        "cycles": result.cycles,
        "thread_finish_cycles": list(result.thread_finish_cycles),
        "reads_completed": result.reads_completed,
        "requests_issued": result.requests_issued,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "stats": [getattr(stats, name) for name in vars(stats)],
    }


def _pres_before_second_ref(events):
    """How many REF rounds have a PRE to the second rank to take its REF
    between the first rank's REF and its own, per channel."""
    found = 0
    first_ref = {}  # channel -> rank whose REF opened the round
    closing = {}    # channel -> a PRE to the other rank seen since
    for event in events:
        where, op = event.split()[:2]
        channel, rank, bank = map(int, where.split("."))
        if op == "REF" and bank == 0:
            opened = first_ref.pop(channel, None)
            if opened is None or opened == rank:
                first_ref[channel] = rank
                closing[channel] = False
            else:
                found += closing[channel]
        elif op == "PRE" and channel in first_ref \
                and rank != first_ref[channel]:
            closing[channel] = True
    return found


class TestMultiRankStreamPin:
    """Command streams on two channels of two ranks, where both ranks of
    a channel fall due at every tREFI tick: the REF order between them,
    the PREs that close the second rank and the REF credit to the RAA
    counters (RAAIMT 4, so RFMs issue between REFs).  Recorded before
    the REF candidate, the REF issue and the RAA credit went inline."""

    PINS = {
        "none": {
            "sha256": "9ef0c09dcd3ead7af345640a817b65865eb1b1f5"
                      "5dfe094ca88e7cfb3badf3bd",
            "events": 1253, "cycles": 85556,
            "thread_finish_cycles": [84667, 85556],
            "reads_completed": 304, "requests_issued": 400,
            "refreshes": 32, "rfms": 0,
            "stats": [365, 360, 304, 96, 128, 0, 400, 365, 246, 0]},
        "parfm": {
            "sha256": "519bb45a1121accfae7aca08eecbbe4702a85429"
                      "90c251d2c3f6c6836b7933e8",
            "events": 1412, "cycles": 85556,
            "thread_finish_cycles": [84667, 85556],
            "reads_completed": 304, "requests_issued": 400,
            "refreshes": 32, "rfms": 53,
            "stats": [418, 413, 304, 96, 128, 53, 400, 418, 246, 0]},
        "shadow": {
            "sha256": "ee4387c922c124cc51da145555ca556c86fb54c1"
                      "4ba6ebe320b796c9a5075287",
            "events": 1412, "cycles": 85556,
            "thread_finish_cycles": [84667, 85556],
            "reads_completed": 304, "requests_issued": 400,
            "refreshes": 32, "rfms": 53,
            "stats": [418, 413, 304, 96, 128, 53, 400, 418, 246, 2508]},
        "drr": {
            "sha256": "af79e1d53f4eaab3d987521992fe52964f15a2fa"
                      "00d247900c935bad293c756e",
            "events": 1401, "cycles": 85556,
            "thread_finish_cycles": [84667, 85556],
            "reads_completed": 304, "requests_issued": 400,
            "refreshes": 64, "rfms": 0,
            "stats": [375, 370, 304, 96, 256, 0, 400, 375, 186, 0]},
        "parfm-dense": {
            "sha256": "ab454f4c62bbe53c60ea310027ee5a3f881bb5c6"
                      "97bef27673f0ef22d727ec03",
            "events": 6045, "cycles": 27939,
            "thread_finish_cycles": [27939, 27785],
            "reads_completed": 1507, "requests_issued": 2000,
            "refreshes": 8, "rfms": 213,
            "stats": [1908, 1892, 1507, 493, 32, 213, 2000, 1908, 1655,
                      0]},
    }

    @pytest.mark.parametrize("scenario", sorted(_PIN_SCENARIOS))
    def test_stream_matches_pin(self, scenario):
        assert _run_pin(scenario) == self.PINS[scenario]

    def test_sparse_runs_cross_four_ticks_per_rank(self):
        ranks = GEOMETRY.channels * GEOMETRY.ranks_per_channel
        for scenario, pin in self.PINS.items():
            if scenario != "parfm-dense":
                assert pin["refreshes"] >= 4 * ranks, scenario
                assert pin["cycles"] >= 4 * T.tREFI, scenario

    def test_dense_run_closes_the_second_rank_after_the_first_ref(self):
        events = []
        _run_pin("parfm-dense", events)
        assert _pres_before_second_ref(events) >= 1
