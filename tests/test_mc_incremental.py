"""Regressions for the incremental scheduling core.

Covers the invariants the candidate cache must preserve: FIFO-age
tie-breaking, O(1) pending counters, refresh obligations on idle
channels, re-translation and cache invalidation on remap notices, and the
throttler gate on lower-bound pruning.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations.base import Mitigation
from repro.mitigations.filtered import FilteredRfm
from repro.mitigations.none import NoMitigation
from repro.obs import Observability
from repro.sim import System, SystemConfig

T = DDR4_2666
SMALL = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)
TWO_CHAN = DramGeometry(
    channels=2, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)


def make_mc(mitigation=None, geometry=SMALL, refresh=True):
    device = DramDevice(geometry, T)
    mc = MemoryController(device, mitigation or NoMitigation(),
                          config=McConfig(enable_refresh=refresh))
    return device, mc


def req(row, col=0, bank=0, channel=0, write=False, arrival=0, thread=0):
    return MemoryRequest(
        location=MemoryLocation(channel, 0, bank, row, col),
        is_write=write, thread_id=thread, arrival=arrival)


def run_to_completion(mc, channels=(0,), horizon=5_000_000):
    done = []
    cycle = 0
    while mc.pending_requests() and cycle < horizon:
        wakes = []
        for ch in channels:
            completions, wake = mc.drain(ch, cycle)
            done.extend(completions)
            if wake is not None:
                wakes.append(wake)
        if mc.pending_requests() == 0:
            break
        nxt = min(wakes) if wakes else cycle + 1
        cycle = nxt if nxt > cycle else cycle + 1
    assert mc.pending_requests() == 0, "requests stuck in the queues"
    return done


class TestFifoAgeTieBreaks:
    def test_same_row_hits_retire_in_fifo_order(self):
        device, mc = make_mc(refresh=False)
        requests = [req(row=3, col=i, arrival=i) for i in range(6)]
        for r in requests:
            mc.enqueue(r)
        done = run_to_completion(mc)
        assert [r.request_id for r, _ in done] == \
            [r.request_id for r in requests]
        issue_cycles = [r.issued for r in requests]
        assert issue_cycles == sorted(issue_cycles)

    def test_equal_readiness_prefers_older_request_across_banks(self):
        # Two closed banks, both ACT-ready at cycle 0: the older arrival
        # must win the tie even though both candidates are identical in
        # (earliest, priority).
        device, mc = make_mc(refresh=False)
        older = req(row=1, bank=1, arrival=0)
        younger = req(row=2, bank=0, arrival=1)
        mc.enqueue(younger)
        mc.enqueue(older)
        run_to_completion(mc)
        assert older.issued < younger.issued

    def test_row_hit_beats_older_conflict(self):
        # FR-FCFS: a younger hit on the open row overtakes an older
        # request that needs a PRE+ACT.
        device, mc = make_mc(refresh=False)
        opener = req(row=1, col=0, arrival=0)
        conflict = req(row=2, col=0, arrival=1)
        hit = req(row=1, col=1, arrival=2)
        for r in (opener, conflict, hit):
            mc.enqueue(r)
        run_to_completion(mc)
        assert hit.completed < conflict.completed


class TestIdleRefreshWake:
    def test_idle_channel_wakes_for_refresh_and_issues_ref(self):
        device, mc = make_mc(refresh=True)
        # Nothing enqueued: the drain finds no candidate before the
        # refresh horizon and must report the tREFI due time as wake.
        completions, wake = mc.drain(0, 0)
        assert completions == []
        tracker = mc.refresh[(0, 0)]
        assert wake == tracker.next_due
        assert wake > 0
        # Draining at the due time issues the REF on the idle channel.
        mc.drain(0, wake)
        assert device.ranks[(0, 0)].refs == 1
        assert device.aggregate_stats().refreshes == SMALL.banks_per_rank

    def test_due_refresh_is_never_dropped_by_a_late_drain(self):
        device, mc = make_mc(refresh=True)
        tracker = mc.refresh[(0, 0)]
        # The first drain happens well after the tracker fell due: the
        # REF still issues (late) instead of being skipped as "in the
        # past", and the returned wake is the next REF tick.
        until = tracker.next_due + 100
        completions, wake = mc.drain(0, until)
        assert completions == []
        assert device.ranks[(0, 0)].refs == 1
        assert device.aggregate_stats().refreshes == SMALL.banks_per_rank
        assert wake == tracker.next_due > until

    def test_refreshes_keep_coming_on_idle_channel(self):
        device, mc = make_mc(refresh=True)
        cycle, refs = 0, 0
        for _ in range(5):
            _, wake = mc.drain(0, cycle)
            assert wake is not None
            cycle = wake
            mc.drain(0, cycle)
            refs = device.ranks[(0, 0)].refs
        assert refs >= 4


class TestPendingCounters:
    def test_counts_per_channel_and_total(self):
        device, mc = make_mc(geometry=TWO_CHAN, refresh=False)
        for i in range(3):
            mc.enqueue(req(row=i, channel=0, arrival=i))
        for i in range(2):
            mc.enqueue(req(row=i, channel=1, arrival=i))
        assert mc.pending_requests() == 5
        assert mc.pending_requests(0) == 3
        assert mc.pending_requests(1) == 2
        run_to_completion(mc, channels=(0, 1))
        assert mc.pending_requests() == 0
        assert mc.pending_requests(0) == 0
        assert mc.pending_requests(1) == 0

    def test_counters_track_queue_contents(self):
        device, mc = make_mc(refresh=False)
        requests = [req(row=r, arrival=r) for r in range(4)]
        for r in requests:
            mc.enqueue(r)
        while mc.pending_requests():
            live = sum(len(q) for q in mc.queues.values())
            assert live == mc.pending_requests()
            before = mc.retired
            cycle = 0 if mc.retired == 0 else max(
                r.completed or 0 for r in requests)
            completions, wake = mc.drain(0, cycle + 100000)
            if not completions and wake is None:
                break
        assert mc.pending_requests() == 0
        assert mc.queues == {}


class _RemapToggle(Mitigation):
    """Toy dynamic scheme: flips two rows' DA mapping on demand."""

    name = "remap-toggle"
    hooks = frozenset({"remap"})

    def __init__(self, row_a, row_b):
        super().__init__()
        self.row_a = row_a
        self.row_b = row_b
        self.flipped = False

    def translate(self, addr, pa_row):
        base = self.geometry.layout.identity_da
        if self.flipped:
            if pa_row == self.row_a:
                return base(self.row_b)
            if pa_row == self.row_b:
                return base(self.row_a)
        return base(pa_row)

    def flip(self, addr):
        self.flipped = not self.flipped
        self.notify_translation_changed(addr)


class TestTranslationInvalidation:
    def test_generation_bump_retargets_queued_requests(self):
        mitigation = _RemapToggle(row_a=1, row_b=2)
        device, mc = make_mc(mitigation, refresh=False)
        addr = BankAddress(0, 0, 0)
        ident = mitigation.geometry.layout.identity_da

        opener = req(row=1, col=0, arrival=0)
        queued = req(row=1, col=1, arrival=1)
        mc.enqueue(opener)
        mc.enqueue(queued)
        # Issue ACT+RD for the opener only: stop before queued's column.
        mc.drain(0, T.tRCD)
        assert opener.issued is not None
        assert device.banks[addr].open_row == ident(1)

        # Remap while `queued` is still waiting: its cached DA row and
        # the controller's hit index must re-translate, so it now
        # conflicts with the open row instead of hitting it.
        mitigation.flip(addr)
        run_to_completion(mc)
        assert queued.da_row == ident(2)
        assert device.banks[addr].stats.row_conflicts >= 1

    def test_listener_registered_by_controller(self):
        mitigation = _RemapToggle(row_a=1, row_b=2)
        device, mc = make_mc(mitigation, refresh=False)
        ident = mitigation.geometry.layout.identity_da
        queued = req(row=1)
        mc.enqueue(queued)
        ctx = mc._ctx[BankAddress(0, 0, 0)]
        mc._best_candidate(0, 0)
        assert not ctx.dirty
        mitigation.flip(BankAddress(0, 0, 0))
        assert ctx.dirty
        # The notification itself re-translates the queue and re-keys
        # the hit index: no drain or scan runs in between.
        assert queued.da_row == ident(2)
        assert list(ctx.hit_index) == [ident(2)]
        assert list(ctx.hit_index[ident(2)]) == [queued]


def _load_golden_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_prune",
        Path(__file__).resolve().parent / "golden" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLowerBoundPruning:
    GEN = _load_golden_generator()

    @pytest.mark.parametrize("scheme, prunes", [
        ("none", True), ("shadow", True),
        # BlockHammer counts every before_activate probe, so its scans
        # must evaluate every bank: the prune is gated off.
        ("blockhammer", False),
    ])
    def test_pruned_counts_on_golden_scenarios(self, scheme, prunes):
        gen = self.GEN
        config = SystemConfig(geometry=gen.GEOMETRY, seed=gen.SEED,
                              requests_per_thread=gen.REQUESTS_PER_THREAD)
        obs = Observability(metrics=True)
        System(list(gen.THREADS), gen.make_mitigation(scheme),
               config=config, obs=obs).run()
        cache = obs.summary["candidate_cache"]
        # A pruned bank was still evaluated (its cached core read or
        # recomputed), so the cache invariant is unchanged.
        assert cache["evals"] == cache["hits"] + cache["recomputes"] > 0
        if prunes:
            assert 0 < cache["pruned"] < cache["evals"]
        else:
            assert cache["pruned"] == 0

    def test_filtered_rfm_keeps_the_fast_path(self):
        # The hazard filter forwards a non-throttling inner scheme's
        # hooks, so its scans keep the candidate memo and the prune.
        gen = self.GEN
        config = SystemConfig(geometry=gen.GEOMETRY, seed=gen.SEED,
                              requests_per_thread=gen.REQUESTS_PER_THREAD)
        obs = Observability(metrics=True)
        system = System(list(gen.THREADS),
                        FilteredRfm(gen.make_mitigation("parfm"),
                                    hazard_threshold=8),
                        config=config, obs=obs)
        assert system.mc._cand_reuse
        system.run()
        assert obs.summary["candidate_cache"]["pruned"] > 0


class TestArrivalCausality:
    @pytest.mark.xfail(strict=True, reason=(
        "known bug: no candidate is floored at its request's arrival, so "
        "a read on an idle bank is served before it arrives (ROADMAP)"))
    def test_read_is_not_served_before_it_arrives(self):
        _device, mc = make_mc(refresh=False)
        request = req(row=1, arrival=5000)
        mc.enqueue(request)
        mc.drain(0, 5000)
        # Its ACT cannot precede the arrival, so neither can the column
        # command a tRCD later, nor the data.
        assert request.issued >= 5000 + T.tRCD
        assert request.completed >= 5000 + T.tRCD + T.tCL + T.tBL
