"""Baseline mitigations: behavioural contracts of each scheme."""

import pytest

from repro.core.config import secure_raaimt
from repro.dram.device import BankAddress, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import (
    BlockHammer,
    BlockHammerConfig,
    DoubleRefreshRate,
    Graphene,
    Mithril,
    NoMitigation,
    Para,
    Parfm,
    RandomizedRowSwap,
    RrsConfig,
    mithril_area,
    mithril_perf,
)
from repro.mitigations.dapper import dapper_raaimt
from repro.mitigations.parfm import parfm_raaimt
from repro.spec.registry import SCHEMES
from repro.utils.rng import SystemRng

T = DDR4_2666
GEOMETRY = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
)
ADDR = BankAddress(0, 0, 0)


def bind(mitigation):
    mitigation.bind(GEOMETRY, T)
    return mitigation


class TestNoMitigation:
    def test_is_transparent(self):
        m = bind(NoMitigation())
        assert m.act_extra_cycles == 0
        assert not m.uses_rfm
        assert m.refresh_interval_scale == 1.0
        assert m.translate(ADDR, 10) == GEOMETRY.layout.identity_da(10)
        assert m.before_activate(ADDR, 10, 5) == 5
        assert m.on_activate(ADDR, 10, 10, 5) is None


class TestDrr:
    def test_halves_trefi(self):
        assert bind(DoubleRefreshRate()).refresh_interval_scale == 0.5

    def test_custom_factor(self):
        assert bind(DoubleRefreshRate(4)).refresh_interval_scale == 0.25
        with pytest.raises(ValueError):
            DoubleRefreshRate(0.5)


class TestPara:
    def test_probability_derivation(self):
        from repro.mitigations.para import para_probability
        p = para_probability(4096, target_failure=1e-4)
        assert 0 < p < 1
        # Lower hcnt needs a higher sampling probability.
        assert para_probability(2048) > para_probability(8192)

    def test_samples_at_configured_rate(self):
        m = bind(Para(probability=1.0, rng=SystemRng(1)))
        out = m.on_activate(ADDR, 10, GEOMETRY.layout.identity_da(10), 0)
        assert out.trr_rows  # p=1 always refreshes a neighbour
        m0 = bind(Para(probability=0.0, rng=SystemRng(1)))
        out0 = m0.on_activate(ADDR, 10, GEOMETRY.layout.identity_da(10), 0)
        assert not out0.trr_rows

    def test_neighbours_stay_in_subarray(self):
        m = bind(Para(probability=1.0, blast_radius=3, rng=SystemRng(2)))
        da_edge = GEOMETRY.layout.da_range(0)[0]  # first row of subarray 0
        out = m.on_activate(ADDR, 0, da_edge, 0)
        lo, hi = GEOMETRY.layout.da_range(0)
        assert all(lo <= r < hi for r in out.trr_rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            Para(probability=1.5)
        with pytest.raises(ValueError):
            Para(probability=0.5, blast_radius=0)


class TestParfm:
    def test_raaimt_derivations(self):
        assert parfm_raaimt(4096) == secure_raaimt(4096) // 2 == 32
        assert parfm_raaimt(4096, blast_radius=3) < parfm_raaimt(4096)

    def test_raaimt_rejects_nonpositive_hcnt(self):
        # Both derive from the one secure-RAAIMT table, which refuses a
        # threshold that names no attack.
        for derive in (secure_raaimt, parfm_raaimt, dapper_raaimt):
            with pytest.raises(ValueError, match="hcnt must be positive"):
                derive(0)

    def test_uses_rfm(self):
        m = bind(Parfm(raaimt=16))
        assert m.uses_rfm
        assert m.raaimt == 16

    def test_rfm_refreshes_neighbours_of_recent_row(self):
        m = bind(Parfm(raaimt=8, rng=SystemRng(3)))
        da = GEOMETRY.layout.identity_da(10)
        for _ in range(8):
            m.on_activate(ADDR, 10, da, 0)
        out = m.on_rfm(ADDR, 100)
        assert set(out.refreshed_rows) == {da - 1, da + 1}
        assert out.duration == 2 * T.tRC

    def test_rfm_with_no_history(self):
        m = bind(Parfm(raaimt=8))
        out = m.on_rfm(ADDR, 0)
        assert out.refreshed_rows == []

    def test_blast_radius_widens_trr(self):
        m = bind(Parfm(raaimt=4, blast_radius=3, rng=SystemRng(1)))
        da = GEOMETRY.layout.identity_da(10)
        for _ in range(4):
            m.on_activate(ADDR, 10, da, 0)
        out = m.on_rfm(ADDR, 0)
        assert len(out.refreshed_rows) == 6


class TestMithril:
    def test_configs(self):
        perf = mithril_perf(4096)
        area = mithril_area(4096)
        assert perf.raaimt > area.raaimt
        assert perf.table_kilobytes() > area.table_kilobytes()
        assert area.raaimt == 32

    def test_rfm_targets_hottest_row(self):
        m = bind(Mithril(raaimt=8, table_entries=8))
        hot = GEOMETRY.layout.identity_da(20)
        for _ in range(10):
            m.on_activate(ADDR, 20, hot, 0)
        m.on_activate(ADDR, 30, GEOMETRY.layout.identity_da(30), 0)
        out = m.on_rfm(ADDR, 0)
        assert set(out.refreshed_rows) == {hot - 1, hot + 1}

    def test_settling_rotates_targets(self):
        m = bind(Mithril(raaimt=8, table_entries=8))
        a, b = GEOMETRY.layout.identity_da(20), GEOMETRY.layout.identity_da(40)
        for _ in range(10):
            m.on_activate(ADDR, 20, a, 0)
        for _ in range(9):
            m.on_activate(ADDR, 40, b, 0)
        first = m.on_rfm(ADDR, 0)
        second = m.on_rfm(ADDR, 1)
        assert set(first.refreshed_rows) == {a - 1, a + 1}
        assert set(second.refreshed_rows) == {b - 1, b + 1}

    def test_empty_table(self):
        m = bind(Mithril(raaimt=8, table_entries=4))
        assert m.on_rfm(ADDR, 0).refreshed_rows == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Mithril(raaimt=0, table_entries=4)
        with pytest.raises(ValueError):
            Mithril(raaimt=8, table_entries=0)


class TestGraphene:
    def test_trr_fires_at_threshold(self):
        m = bind(Graphene(hcnt=64, blast_radius=1))
        da = GEOMETRY.layout.identity_da(10)
        fired = []
        for i in range(m.threshold + 1):
            out = m.on_activate(ADDR, 10, da, i)
            if out.trr_rows:
                fired.append(i)
        assert fired, "Graphene never issued a TRR"
        assert fired[0] == m.threshold - 1

    def test_threshold_scales_with_blast(self):
        narrow = Graphene(hcnt=512, blast_radius=1)
        wide = Graphene(hcnt=512, blast_radius=3)
        assert wide.threshold < narrow.threshold

    def test_validation(self):
        with pytest.raises(ValueError):
            Graphene(hcnt=4)


class TestBlockHammer:
    def test_blacklisted_rows_get_throttled(self):
        m = bind(BlockHammer(BlockHammerConfig(hcnt=64)))
        threshold = m.config.blacklist_threshold
        cycle = 0
        for _ in range(threshold + 1):
            cycle = m.before_activate(ADDR, 10, cycle)
            m.on_activate(ADDR, 10, 10, cycle)
            cycle += T.tRC
        # Now blacklisted: the next ACT must wait ~tREFW/hcnt.
        allowed = m.before_activate(ADDR, 10, cycle)
        assert allowed > cycle
        assert m.throttled_acts >= 1

    def test_cold_rows_unaffected(self):
        m = bind(BlockHammer(BlockHammerConfig(hcnt=64)))
        assert m.before_activate(ADDR, 10, 123) == 123

    def test_delay_grows_as_hcnt_drops(self):
        low = bind(BlockHammer.for_hcnt(2048))
        high = bind(BlockHammer.for_hcnt(16384))
        assert low._delay > high._delay

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockHammerConfig(hcnt=1)
        with pytest.raises(ValueError):
            BlockHammerConfig(hcnt=64, safety_margin=0.5)


class TestRrs:
    def test_swap_threshold(self):
        assert RrsConfig(hcnt=4096).swap_threshold == 682
        with pytest.raises(ValueError):
            RrsConfig(hcnt=4)

    def test_swap_fires_and_remaps(self):
        m = bind(RandomizedRowSwap(RrsConfig(hcnt=60), rng=SystemRng(4)))
        original = m.translate(ADDR, 10)
        swapped = None
        for i in range(m.config.swap_threshold + 1):
            out = m.on_activate(ADDR, 10, m.translate(ADDR, 10), i)
            if out.channel_block_cycles:
                swapped = out
                break
        assert swapped is not None
        assert m.swaps == 1
        assert m.translate(ADDR, 10) != original
        assert swapped.channel_block_cycles == T.cycles(4000.0)
        assert len(swapped.restored_rows) == 2

    def test_translation_stays_bijective_after_many_swaps(self):
        m = bind(RandomizedRowSwap(RrsConfig(hcnt=60), rng=SystemRng(8)))
        rng = SystemRng(9)
        for i in range(3000):
            pa = rng.randrange(16)  # a small hot set forces swaps
            m.on_activate(ADDR, pa, m.translate(ADDR, pa), i)
        assert m.swaps > 0
        das = {m.translate(ADDR, pa)
               for pa in range(GEOMETRY.rows_per_bank)}
        assert len(das) == GEOMETRY.rows_per_bank


#: The controller hooks every scheme buildable from ``hcnt`` declares.
HOOKS_BY_SCHEME = {
    "blockhammer": {"act", "throttle"},
    "dapper": {"act", "ref"},
    "drr": set(),
    "graphene": {"act", "ref"},
    "mint": {"act"},
    "mithril-area": {"act"},
    "mithril-perf": {"act"},
    "none": set(),
    "para": {"act"},
    "parfm": {"act"},
    "rrs": {"act", "remap"},
    "shadow": {"act", "remap"},
    "shadow-ablate": {"act", "remap"},
}


def build_for_hcnt(name, hcnt=4096):
    return SCHEMES.build(
        name, **SCHEMES.buildable_params(name, {"hcnt": hcnt}))


class TestDeclaredHooks:
    def test_hooks_table(self):
        names = [n for n in SCHEMES.names() if SCHEMES.accepts(n, "hcnt")]
        table = {name: build_for_hcnt(name).hooks for name in names}
        rfm_inners = [name for name in names if build_for_hcnt(name).uses_rfm]
        assert {"shadow", "parfm", "mint", "mithril-perf", "dapper"} \
            <= set(rfm_inners)
        expected = dict(HOOKS_BY_SCHEME)
        for inner in rfm_inners:
            table[f"filtered({inner})"] = SCHEMES.build(
                "filtered", inner=inner, hcnt=4096).hooks
            expected[f"filtered({inner})"] = HOOKS_BY_SCHEME[inner] | {"act"}
        assert table == expected

    def test_on_ref_is_a_no_op_outside_the_ref_window_cadence(self):
        # Interval drivers call on_ref on every scheme; Mithril resets
        # per RFM, so a REF sweep must leave its table alone.
        m = bind(Mithril(raaimt=8, table_entries=8))
        for row in (20, 30, 40):
            m.on_activate(ADDR, row, GEOMETRY.layout.identity_da(row), 0)
        assert m.tracker_occupancy() == 3
        m.on_ref((ADDR,), 0, GEOMETRY.layout.da_rows_per_bank, 1)
        assert m.tracker_occupancy() == 3
        assert m.tracker_resets == 0

    def test_on_ref_resets_a_ref_window_tracker_at_the_sweep_wrap(self):
        m = bind(Graphene(hcnt=4096))
        for row in (20, 30, 40):
            m.on_activate(ADDR, row, GEOMETRY.layout.identity_da(row), 0)
        m.on_ref((ADDR,), 8, 16, 1)
        assert m.tracker_occupancy() == 3
        m.on_ref((ADDR,), 0, 8, 2)
        assert m.tracker_occupancy() == 0
        assert m.tracker_resets == 1

    def test_one_on_ref_resets_every_named_bank_in_order(self):
        m = bind(Graphene(hcnt=4096))
        events = []
        m.register_event_listener(
            lambda kind, addr, cycle, payload: events.append((kind, addr)))
        banks = [BankAddress(0, 0, b) for b in (2, 0, 1)]
        for addr in banks:
            m.on_activate(addr, 20, GEOMETRY.layout.identity_da(20), 0)
        m.on_ref(banks, 0, 8, 1)
        assert m.tracker_occupancy() == 0
        assert m.tracker_resets == 3
        assert [a for kind, a in events if kind == "tracker-reset"] == banks


#: Every registered scheme whose factory takes a blast ``radius``.
RADIUS_SCHEMES = [n for n in SCHEMES.names()
                  if "radius" in SCHEMES.buildable_params(n, {"radius": 1})]


class TestBlastRadiusValidation:
    """A radius below 1 raises rather than silently simulating radius 1
    (a spec whose digest says radius 0 must not run as radius 1)."""

    def test_radius_schemes_are_the_rfm_trackers(self):
        assert set(RADIUS_SCHEMES) == {
            "dapper", "mint", "mithril-area", "mithril-perf", "parfm"}

    @pytest.mark.parametrize("radius", [0, -2])
    @pytest.mark.parametrize("name", RADIUS_SCHEMES)
    def test_registry_rejects_radius_below_one(self, name, radius):
        with pytest.raises(ValueError, match="blast_radius"):
            SCHEMES.build(name, hcnt=4096, radius=radius)

    @pytest.mark.parametrize("build", [
        lambda: Graphene(hcnt=4096, blast_radius=0),
        lambda: Mithril(raaimt=8, table_entries=8, blast_radius=0),
        lambda: BlockHammerConfig(hcnt=4096, blast_radius=0),
    ], ids=["graphene", "mithril", "blockhammer"])
    def test_constructors_reject_radius_below_one(self, build):
        with pytest.raises(ValueError, match="blast_radius"):
            build()
