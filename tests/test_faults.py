"""Fault injection: ECC classification, recovery policies, injector."""

import pytest

from repro.dram.device import BankAddress
from repro.dram.sppr import SpprConfig
from repro.dram.subarray import SubarrayLayout
from repro.faults import build_injector
from repro.faults.ecc import (
    CORRECTED,
    MASKED,
    SILENT,
    UNCORRECTABLE,
    EccConfig,
    EccModel,
    classify,
)
from repro.faults.inject import FaultInjector
from repro.faults.recovery import (
    MAX_EVENTS,
    PANIC,
    RECORDED,
    RETIRED,
    RETRY,
    RecoveryConfig,
    RecoveryPipeline,
)
from repro.rowhammer.model import HammerConfig
from repro.spec import FaultSpec, fault_spec

LAYOUT = SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=32)
ADDR = BankAddress(0, 0, 0)


def make_injector(hcnt=8, codewords=4, policy="retire", seed=1,
                  scrub=True, sppr=None):
    return FaultInjector(
        HammerConfig(hcnt=hcnt, blast_radius=1, layout=LAYOUT),
        ecc=EccConfig(codewords_per_row=codewords),
        recovery=RecoveryConfig(
            policy=policy,
            sppr=sppr if sppr is not None else SpprConfig()),
        seed=seed,
        scrub_on_refresh=scrub)


def hammer(injector, victim, acts, aggressor_offset=1, cycle0=0):
    """Activate the victim's adjacent neighbour ``acts`` times."""
    for i in range(acts):
        injector.on_activate(ADDR, victim + aggressor_offset, cycle0 + i)


class TestClassify:
    def test_transitions(self):
        assert classify(0) == CORRECTED
        assert classify(1) == CORRECTED
        assert classify(2) == UNCORRECTABLE
        assert classify(3) == SILENT
        assert classify(7) == SILENT
        with pytest.raises(ValueError):
            classify(-1)


class TestEccModel:
    def test_inject_transitions_per_codeword(self):
        ecc = EccModel(EccConfig(codewords_per_row=4))
        key = (ADDR, 7)
        assert ecc.inject(key, 0, 3) == CORRECTED
        assert ecc.inject(key, 0, 5) == UNCORRECTABLE
        assert ecc.inject(key, 0, 9) == SILENT
        # A different codeword classifies independently.
        assert ecc.inject(key, 1, 3) == CORRECTED
        assert ecc.flipped_bits(key) == 4
        assert ecc.worst_codeword(key) == 3

    def test_duplicate_bit_is_masked(self):
        ecc = EccModel(EccConfig())
        key = (ADDR, 0)
        assert ecc.inject(key, 2, 11) == CORRECTED
        assert ecc.inject(key, 2, 11) == MASKED
        assert ecc.flipped_bits(key) == 1

    def test_bounds_checked(self):
        ecc = EccModel(EccConfig(data_bits=64, check_bits=8,
                                 codewords_per_row=2))
        with pytest.raises(ValueError):
            ecc.inject((ADDR, 0), 2, 0)
        with pytest.raises(ValueError):
            ecc.inject((ADDR, 0), 0, 72)

    def test_scrub_fixes_only_single_bit_codewords(self):
        ecc = EccModel(EccConfig(codewords_per_row=4))
        key = (ADDR, 3)
        ecc.inject(key, 0, 1)            # k=1: scrubbable
        ecc.inject(key, 1, 1)
        ecc.inject(key, 1, 2)            # k=2: stays broken
        corrected, broken = ecc.scrub_row(key)
        assert (corrected, broken) == (1, 1)
        assert ecc.worst_codeword(key) == 2
        # Scrubbing a clean row is a no-op.
        assert ecc.scrub_row((ADDR, 99)) == (0, 0)

    def test_scrub_drops_fully_clean_rows(self):
        ecc = EccModel(EccConfig())
        key = (ADDR, 1)
        ecc.inject(key, 0, 0)
        assert len(ecc) == 1
        assert ecc.scrub_row(key) == (1, 0)
        assert len(ecc) == 0

    def test_move_row_carries_errors(self):
        ecc = EccModel(EccConfig())
        src, dst = (ADDR, 1), (ADDR, 2)
        ecc.inject(src, 0, 0)
        ecc.inject(dst, 5, 5)
        ecc.move_row(src, dst)
        assert ecc.flipped_bits(src) == 0
        # The copy overwrote dst's old state with src's.
        assert ecc.flipped_bits(dst) == 1
        # Moving a clean row wipes the destination.
        ecc.move_row((ADDR, 9), dst)
        assert len(ecc) == 0

    def test_clear_row_and_all(self):
        ecc = EccModel(EccConfig())
        ecc.inject((ADDR, 1), 0, 0)
        ecc.inject((ADDR, 2), 0, 0)
        ecc.clear_row((ADDR, 1))
        assert len(ecc) == 1
        ecc.clear_all()
        assert len(ecc) == 0


class TestRecoveryPolicies:
    def test_retire_uses_sppr_then_panics_on_exhaustion(self):
        pipe = RecoveryPipeline(RecoveryConfig(
            policy="retire",
            sppr=SpprConfig(spare_rows_per_bank=1,
                            repairs_per_bank_group=1)))
        assert pipe.on_uncorrectable(ADDR, 5, 100) == RETIRED
        assert pipe.repairs == 1
        assert pipe.sppr.resolve(ADDR, 5) == 0
        # Spares gone: the next error escalates to a panic, and the
        # power cycle releases the (volatile) soft repairs.
        assert pipe.on_uncorrectable(ADDR, 6, 200) == PANIC
        assert pipe.sppr_exhausted == 1
        assert pipe.panics == 1 and pipe.panicked
        assert pipe.sppr.resolve(ADDR, 5) is None
        assert pipe.sppr.can_repair(ADDR)

    def test_refresh_retry_budget_then_panic(self):
        pipe = RecoveryPipeline(RecoveryConfig(policy="refresh-retry",
                                               max_retries=2))
        assert pipe.on_uncorrectable(ADDR, 5, 1) == RETRY
        assert pipe.on_uncorrectable(ADDR, 5, 2) == RETRY
        assert pipe.on_uncorrectable(ADDR, 5, 3) == PANIC
        assert pipe.retries == 2 and pipe.panics == 1
        # The budget is per-row; a different row retries afresh --
        # and the panic cleared the ledger anyway.
        assert pipe.on_uncorrectable(ADDR, 6, 4) == RETRY

    def test_panic_only_and_record_only(self):
        pipe = RecoveryPipeline(RecoveryConfig(policy="panic"))
        assert pipe.on_uncorrectable(ADDR, 1, 1) == PANIC
        pipe = RecoveryPipeline(RecoveryConfig(policy="none"))
        assert pipe.on_uncorrectable(ADDR, 1, 1) == RECORDED
        assert pipe.panics == 0 and not pipe.panicked
        assert pipe.events_total == 1

    def test_unknown_policy_rejected_with_suggestion(self):
        with pytest.raises(Exception):
            RecoveryConfig(policy="retyre")

    def test_event_log_bounded_count_exact(self):
        pipe = RecoveryPipeline(RecoveryConfig(policy="none"))
        for i in range(MAX_EVENTS + 10):
            pipe.on_uncorrectable(ADDR, i, i)
        assert len(pipe.events) == MAX_EVENTS
        assert pipe.events_total == MAX_EVENTS + 10
        assert pipe.events[0] == {"kind": "uncorrectable",
                                  "bank": "0.0.0", "da_row": 0,
                                  "cycle": 0}


class TestFaultInjector:
    def test_no_flips_below_threshold(self):
        injector = make_injector(hcnt=8)
        hammer(injector, victim=10, acts=7)
        assert injector.first_flip_cycle is None
        assert injector.counts["bits_injected"] == 0

    def test_each_act_past_threshold_injects_one_bit(self):
        # radius 1: the single aggressor (row 11) charges both its
        # neighbours (10 and 12) with weight 1, so each act at or past
        # the threshold injects one bit into each of the two victims.
        injector = make_injector(hcnt=8, codewords=1024)
        hammer(injector, victim=10, acts=12)
        assert injector.first_flip_cycle == 7      # 8th act, cycle 7
        counts = injector.counts
        assert counts["bits_injected"] + counts["bits_masked"] == 2 * 5
        assert len(injector._rows_ever) == 2

    def test_uncorrectable_escalates_to_retire_then_suppresses(self):
        # One codeword with few bits forces the collision fast.
        injector = make_injector(hcnt=4, codewords=1, policy="retire")
        hammer(injector, victim=10, acts=40)
        counts = injector.counts
        assert counts["uncorrectable"] >= 1
        # Default sPPR pool (2 spares/bank) absorbs every retire here.
        assert injector.recovery.repairs == counts["uncorrectable"]
        # Post-retire flips in the victim are absorbed by the spare:
        # its counter restarted at the retire, so crossing hcnt again
        # surfaces as suppressed injections.
        assert counts["suppressed_by_repair"] > 0
        assert injector.ecc.flipped_bits((ADDR, 10)) == 0

    def test_panic_policy_power_cycles_everything(self):
        injector = make_injector(hcnt=4, codewords=1, policy="panic")
        hammer(injector, victim=10, acts=40)
        counts = injector.counts
        assert counts["power_cycles"] >= 1
        assert injector.recovery.panicked
        assert len(injector.ecc) == 0 or counts["uncorrectable"] > 0

    def test_scrub_on_refresh_corrects_single_bit_codewords(self):
        injector = make_injector(hcnt=4, codewords=1024, scrub=True)
        hammer(injector, victim=10, acts=6)
        resident = (injector.ecc.flipped_bits((ADDR, 10))
                    + injector.ecc.flipped_bits((ADDR, 12)))
        assert resident > 0
        rows = LAYOUT.da_rows_per_bank
        injector.on_refresh((ADDR,), 0, rows, cycle=999)
        assert injector.counts["scrub_corrected"] == resident
        assert injector.ecc.flipped_bits((ADDR, 10)) == 0
        # ... and the sweep reset the disturbance counters too.
        assert injector.max_disturbance() == 0.0

    def test_row_copy_moves_error_state(self):
        injector = make_injector(hcnt=4, codewords=1024, scrub=False)
        hammer(injector, victim=10, acts=5)
        moved = injector.ecc.flipped_bits((ADDR, 10))
        assert moved > 0
        injector.on_row_copy(ADDR, 10, 20, cycle=50)
        assert injector.ecc.flipped_bits((ADDR, 10)) == 0
        assert injector.ecc.flipped_bits((ADDR, 20)) == moved

    def test_injection_is_seed_deterministic(self):
        a, b = make_injector(seed=7), make_injector(seed=7)
        for injector in (a, b):
            hammer(injector, victim=10, acts=30)
        assert a.counts == b.counts
        assert a.report()["first_flip_cycle"] == \
            b.report()["first_flip_cycle"]

    def test_report_shape(self):
        import json
        injector = make_injector(hcnt=4, codewords=1)
        hammer(injector, victim=10, acts=20)
        report = injector.report()
        assert report["hcnt"] == 4
        assert report["policy"] == "retire"
        assert report["total_acts"] == 20
        assert report["rows_flipped"] == 2     # both radius-1 victims
        for key in ("repairs", "retries", "panics", "sppr_exhausted"):
            assert key in report["counts"]
        assert report["degradation_events_total"] == \
            len(report["degradation_events"])
        json.dumps(report)  # must be JSON-able for engine cache entries


class TestFaultSpec:
    def test_build_round_trip(self):
        spec = fault_spec(hcnt=32, policy="panic", seed=9)
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec
        injector = spec.build()
        assert isinstance(injector, FaultInjector)
        assert injector.config.hcnt == 32
        assert injector.recovery.config.policy == "panic"

    def test_validation(self):
        with pytest.raises(ValueError):
            fault_spec(hcnt=0)
        with pytest.raises(Exception):
            fault_spec(policy="no-such-policy")

    @pytest.mark.parametrize("radius", [0, -1])
    def test_blast_radius_below_one_is_rejected(self, radius):
        # A zero radius disturbs no neighbour: the injector could never
        # flip a bit, so every red-team cell would read as secure.
        with pytest.raises(ValueError, match="blast_radius"):
            fault_spec(hcnt=16, blast_radius=radius)

    def test_build_injector_honours_all_fields(self):
        spec = fault_spec(hcnt=16, blast_radius=2, policy="none",
                          seed=3, codewords_per_row=8,
                          scrub_on_refresh=False,
                          refresh_hammers_neighbors=True)
        injector = build_injector(spec)
        assert injector.config.blast_radius == 2
        assert injector.config.refresh_hammers_neighbors
        assert injector.ecc_config.codewords_per_row == 8
        assert injector.seed == 3
        assert not injector._scrub

    def test_controller_binds_the_device_layout(self):
        # On the golden geometry (4 x 64 rows) DA row 65 is the first row
        # of subarray 1: its blast radius must stay inside subarray 1,
        # and a REF segment past row 260 wraps to the bank's row 0.
        from repro.controller.mc import MemoryController
        from repro.dram.device import DramDevice, DramGeometry
        from repro.dram.timing import DDR4_2666
        from repro.mitigations import NoMitigation

        geometry = DramGeometry(
            channels=1, ranks_per_channel=1, banks_per_rank=2,
            layout=SubarrayLayout(subarrays_per_bank=4,
                                  rows_per_subarray=64),
            columns_per_row=32)
        injector = FaultSpec(hcnt=8, seed=7).build()
        MemoryController(DramDevice(geometry, DDR4_2666), NoMitigation(),
                         observer=injector)
        assert injector.config.layout == geometry.layout
        sub_lo, sub_hi = geometry.layout.da_range(1)
        assert sub_lo == 65
        rows = geometry.layout.da_rows_per_bank
        injector.on_activate(ADDR, 65, 0)
        charged = [row for row in range(rows)
                   if injector.disturbance(ADDR, row)]
        assert charged == [66, 67, 68]
        assert all(sub_lo <= row < sub_hi for row in charged)
        injector.on_refresh([ADDR], rows - 2, rows + 69, 1)
        assert injector.max_disturbance() == 0


class TestPassivity:
    def test_injector_never_perturbs_the_simulation(self):
        # The load-bearing invariant: a run with the injector attached
        # is cycle-for-cycle identical to one without, even while bits
        # flip and the recovery pipeline churns.
        from repro.sim import System, SystemConfig
        from repro.spec import scheme_spec
        from repro.workloads.hammer import hammer_profile

        profile = hammer_profile("double-sided", victim_row=260)
        config = SystemConfig(requests_per_thread=400, mlp=1, seed=5)
        scheme = scheme_spec("none")

        plain = System([profile], scheme.build(), config=config).run()
        injector = FaultSpec(hcnt=64, seed=5).build()
        observed = System([profile], scheme.build(), observer=injector,
                          config=config).run()

        assert injector.counts["bits_injected"] > 0  # flips did happen
        assert observed.cycles == plain.cycles
        assert observed.stats.acts == plain.stats.acts
        assert observed.stats.refreshes == plain.stats.refreshes
        assert observed.thread_finish_cycles == \
            plain.thread_finish_cycles
