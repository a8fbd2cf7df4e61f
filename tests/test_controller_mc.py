"""Memory controller integration: scheduling, refresh, RFM, mitigation hooks."""


from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.core import Shadow, ShadowConfig
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import NoMitigation
from repro.mitigations.rrs import RandomizedRowSwap
from repro.rowhammer import DisturbanceModel, HammerConfig

T = DDR4_2666
SMALL = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)


def make_mc(mitigation=None, observer=None, geometry=SMALL,
            refresh=True):
    device = DramDevice(geometry, T)
    mc = MemoryController(
        device, mitigation or NoMitigation(), observer=observer,
        config=McConfig(enable_refresh=refresh))
    return device, mc


def req(row, col=0, bank=0, write=False, arrival=0, thread=0):
    return MemoryRequest(
        location=MemoryLocation(0, 0, bank, row, col),
        is_write=write, thread_id=thread, arrival=arrival)


def run_to_completion(mc, horizon=5_000_000):
    """Drive channel 0 until all queues drain; returns completions."""
    done = []
    cycle = 0
    while mc.pending_requests() and cycle < horizon:
        completions, wake = mc.drain(0, cycle)
        done.extend(completions)
        if mc.pending_requests() == 0:
            break
        if wake is None or wake <= cycle:
            cycle += 1
        else:
            cycle = wake
    assert mc.pending_requests() == 0, "requests stuck in the queues"
    return done


class TestBasicScheduling:
    def test_single_read_latency(self):
        device, mc = make_mc(refresh=False)
        r = req(row=5)
        mc.enqueue(r)
        done = run_to_completion(mc)
        assert len(done) == 1
        # ACT at 0, RD at tRCD, data at tRCD + tCL + tBL.
        assert r.completed == T.tRCD + T.tCL + T.tBL

    def test_row_hit_is_faster_than_conflict(self):
        device, mc = make_mc(refresh=False)
        a, b = req(row=5, col=0), req(row=5, col=1, arrival=1)
        mc.enqueue(a)
        mc.enqueue(b)
        run_to_completion(mc)
        hit_delta = b.completed - a.completed

        device2, mc2 = make_mc(refresh=False)
        c, d = req(row=5), req(row=9, arrival=1)
        mc2.enqueue(c)
        mc2.enqueue(d)
        run_to_completion(mc2)
        conflict_delta = d.completed - c.completed
        assert hit_delta == T.tCCD_L
        assert conflict_delta > hit_delta

    def test_fr_fcfs_prefers_row_hits(self):
        device, mc = make_mc(refresh=False)
        first = req(row=1, col=0, arrival=0)
        conflicting = req(row=2, col=0, arrival=1)
        hit = req(row=1, col=1, arrival=2)
        for r in (first, conflicting, hit):
            mc.enqueue(r)
        run_to_completion(mc)
        # The younger row-hit overtakes the older conflicting request.
        assert hit.completed < conflicting.completed

    def test_banks_overlap(self):
        device, mc = make_mc(refresh=False)
        a = req(row=1, bank=0)
        b = req(row=1, bank=1)
        mc.enqueue(a)
        mc.enqueue(b)
        run_to_completion(mc)
        # Second bank pays only the ACT-to-ACT rank spacing plus bus.
        assert b.completed - a.completed < T.tRC

    def test_writes_complete(self):
        device, mc = make_mc(refresh=False)
        w = req(row=3, write=True)
        mc.enqueue(w)
        done = run_to_completion(mc)
        assert done[0][0] is w
        assert w.completed == T.tCWL + T.tBL + T.tRCD

    def test_stats_counted(self):
        device, mc = make_mc(refresh=False)
        for i in range(4):
            mc.enqueue(req(row=1, col=i))
        run_to_completion(mc)
        stats = device.aggregate_stats()
        assert stats.acts == 1
        assert stats.reads == 4


class TestRefresh:
    def test_refresh_issues_on_schedule(self):
        device, mc = make_mc()
        # Idle drain past several tREFI.
        cycle = 0
        for _ in range(5):
            _, wake = mc.drain(0, cycle)
            assert wake is not None
            cycle = wake
            mc.drain(0, cycle)
        assert device.ranks[(0, 0)].refs >= 4
        assert device.aggregate_stats().refreshes >= 4 * SMALL.banks_per_rank

    def test_refresh_blocks_demand(self):
        device, mc = make_mc()
        # A request arriving exactly at tREFI waits for the refresh.
        r = req(row=0, arrival=T.tREFI)
        mc.enqueue(r)
        cycle = T.tREFI
        done = []
        while not done:
            completions, wake = mc.drain(0, cycle)
            done.extend(completions)
            cycle = wake if wake and wake > cycle else cycle + 1
        assert r.issued >= T.tREFI + T.tRFC

    def test_refresh_observer_notified(self):
        class Spy:
            ranges = []

            def bind(self, geometry):
                pass

            def on_activate(self, *a):
                pass

            def on_refresh(self, addrs, lo, hi, cycle):
                Spy.ranges.append((addrs, lo, hi))

            def on_row_refresh(self, *a):
                pass

            def on_row_copy(self, *a):
                pass

        Spy.ranges = []
        device, mc = make_mc(observer=Spy())
        mc.drain(0, T.tREFI)
        mc.drain(0, T.tREFI + T.tRFC)
        assert Spy.ranges
        lo, hi = Spy.ranges[0][1], Spy.ranges[0][2]
        assert hi > lo


class TestRfmFlow:
    def make_shadow_mc(self, raaimt=8):
        shadow = Shadow(ShadowConfig(raaimt=raaimt, rng_kind="system"))
        hammer = DisturbanceModel(
            HammerConfig(hcnt=10_000, layout=SMALL.layout))
        device, mc = make_mc(mitigation=shadow, observer=hammer,
                             refresh=False)
        return device, mc, shadow, hammer

    def test_rfm_fires_at_raaimt(self):
        device, mc, shadow, _ = self.make_shadow_mc(raaimt=8)
        # 8 ACTs to distinct rows in bank 0 -> one RFM.
        for i in range(8):
            mc.enqueue(req(row=i * 2))
        run_to_completion(mc)
        assert device.aggregate_stats().rfms == 1
        assert shadow.total_shuffles() == 1

    def test_rfm_blocks_bank_for_trfm(self):
        device, mc, shadow, _ = self.make_shadow_mc(raaimt=4)
        for i in range(4):
            mc.enqueue(req(row=i * 2))
        run_to_completion(mc)
        bank = device.bank(BankAddress(0, 0, 0))
        t_rfm_done = bank.busy_until
        late = req(row=40)
        mc.enqueue(late)
        run_to_completion(mc)
        assert late.issued >= t_rfm_done

    def test_shadow_translation_consistent_after_shuffles(self):
        device, mc, shadow, _ = self.make_shadow_mc(raaimt=4)
        for i in range(32):
            mc.enqueue(req(row=i % 8, arrival=i))
        run_to_completion(mc)
        shadow.check_invariants()
        addr = BankAddress(0, 0, 0)
        # Translation is still a bijection over each subarray.
        seen = set()
        for pa in range(SMALL.layout.rows_per_subarray):
            da = shadow.translate(addr, pa)
            assert da not in seen
            seen.add(da)

    def test_shadow_act_latency_charged(self):
        device, mc, shadow, _ = self.make_shadow_mc()
        r = req(row=5)
        mc.enqueue(r)
        run_to_completion(mc)
        assert r.completed == T.tRCD + shadow.act_extra_cycles + T.tCL + T.tBL


class TestHammerObservation:
    def test_activations_charge_neighbours(self):
        hammer = DisturbanceModel(HammerConfig(hcnt=50, layout=SMALL.layout))
        device, mc = make_mc(observer=hammer, refresh=False)
        # Alternate two conflicting rows so every access is an ACT.
        for i in range(30):
            mc.enqueue(req(row=10 if i % 2 else 20, arrival=i))
        run_to_completion(mc)
        addr = BankAddress(0, 0, 0)
        da = SMALL.layout.identity_da(10)
        assert hammer.disturbance(addr, da + 1) > 0

    def test_flip_detected_without_mitigation(self):
        hammer = DisturbanceModel(HammerConfig(hcnt=20, blast_radius=1,
                                               layout=SMALL.layout))
        device, mc = make_mc(observer=hammer, refresh=False)
        # Serialize the requests (enqueue-drain-enqueue) so FR-FCFS cannot
        # batch the row hits: every access becomes an ACT, the classic
        # double-sided pattern around row 11.
        for i in range(50):
            mc.enqueue(req(row=10 if i % 2 else 12, arrival=i))
            run_to_completion(mc)
        assert hammer.flipped
        flip = hammer.first_flip()
        assert flip.da_row == SMALL.layout.identity_da(11)

    def test_one_observer_call_per_act_carries_the_outcome(self):
        class Spy(DisturbanceModel):
            def __init__(self, config):
                super().__init__(config)
                self.calls = 0
                self.swap_outcomes = 0

            def on_activate(self, addr, da_row, cycle, outcome=None):
                self.calls += 1
                if outcome is not None and outcome.restored_rows:
                    self.swap_outcomes += 1
                super().on_activate(addr, da_row, cycle, outcome)

        spy = Spy(HammerConfig(hcnt=30, blast_radius=1,
                               layout=SMALL.layout))
        rrs = RandomizedRowSwap.for_hcnt(30)   # swaps every 5th ACT
        device, mc = make_mc(mitigation=rrs, observer=spy)
        for i in range(60):
            mc.enqueue(req(row=10 if i % 2 else 12, arrival=i))
            run_to_completion(mc)
        acts = device.aggregate_stats().acts
        assert rrs.swaps > 0
        assert spy.calls == spy.total_acts == acts
        assert spy.swap_outcomes == rrs.swaps
