"""Workload profiles, trace generation, and the paper's mixes."""

import hashlib
import math

import pytest

from repro.bench import BENCH_PROFILES
from repro.dram.device import DramGeometry
from repro.dram.timing import DDR4_2666
from repro.workloads import (
    GAPBS_PROFILES,
    NPB_PROFILES,
    SPEC_HIGH,
    SPEC_LOW,
    SPEC_MED,
    SPEC_PROFILES,
    TraceGenerator,
    WorkloadProfile,
    mix_blend,
    mix_high,
    mix_random,
    random_stream_profile,
    spec_group,
    stream_profile,
)
from repro.workloads.trace import zipf_cdf

GEOMETRY = DramGeometry()


def take(gen, n):
    out = []
    stream = gen.requests()
    for _ in range(n):
        out.append(next(stream))
    return out


class TestProfiles:
    def test_paper_groups_complete(self):
        assert set(SPEC_HIGH) == {"bwaves", "fotonik3d", "lbm", "mcf", "wrf"}
        assert set(SPEC_MED) == {"deepsjeng", "gcc", "xz"}
        assert set(SPEC_LOW) == {"exchange2", "imagick", "leela"}
        assert set(SPEC_PROFILES) == set(SPEC_HIGH + SPEC_MED + SPEC_LOW)

    def test_intensity_ordering(self):
        """The defining property of the groups: high > med > low MPKI."""
        high = min(p.mpki for p in spec_group("high"))
        med_hi = max(p.mpki for p in spec_group("med"))
        med_lo = min(p.mpki for p in spec_group("med"))
        low = max(p.mpki for p in spec_group("low"))
        assert high > med_hi
        assert med_lo > low

    def test_intensity_class(self):
        assert SPEC_PROFILES["lbm"].intensity_class() == "high"
        assert SPEC_PROFILES["gcc"].intensity_class() == "med"
        assert SPEC_PROFILES["leela"].intensity_class() == "low"

    def test_gapbs_npb_exist(self):
        assert len(GAPBS_PROFILES) == 6
        assert len(NPB_PROFILES) == 6
        # GAPBS traversals have poor locality (pointer chasing).
        assert all(p.row_buffer_locality <= 0.4
                   for p in GAPBS_PROFILES.values())

    def test_spec_group_rejects_unknown(self):
        with pytest.raises(ValueError):
            spec_group("extreme")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", mpki=0, row_buffer_locality=0.5)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", mpki=1, row_buffer_locality=1.0)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", mpki=1, row_buffer_locality=0.5,
                            zipf_alpha=-1)

    def test_mean_run_length(self):
        p = WorkloadProfile("x", mpki=1, row_buffer_locality=0.75)
        assert p.mean_run_length == pytest.approx(4.0)


class TestTraceGenerator:
    def test_deterministic_under_seed(self):
        a = take(TraceGenerator(SPEC_PROFILES["mcf"], GEOMETRY, 0, seed=5), 50)
        b = take(TraceGenerator(SPEC_PROFILES["mcf"], GEOMETRY, 0, seed=5), 50)
        assert a == b

    def test_different_threads_differ(self):
        a = take(TraceGenerator(SPEC_PROFILES["mcf"], GEOMETRY, 0, seed=5), 50)
        b = take(TraceGenerator(SPEC_PROFILES["mcf"], GEOMETRY, 1, seed=5), 50)
        assert a != b

    def test_locations_are_in_geometry(self):
        for _gap, loc, _w in take(
                TraceGenerator(SPEC_PROFILES["bwaves"], GEOMETRY, 2), 200):
            assert 0 <= loc.channel < GEOMETRY.channels
            assert 0 <= loc.row < GEOMETRY.rows_per_bank
            assert 0 <= loc.column < GEOMETRY.columns_per_row

    def test_gaps_scale_with_mpki(self):
        hot = take(TraceGenerator(random_stream_profile(), GEOMETRY, 0), 300)
        cold = take(TraceGenerator(SPEC_PROFILES["leela"], GEOMETRY, 0), 300)
        mean_hot = sum(g for g, _l, _w in hot) / len(hot)
        mean_cold = sum(g for g, _l, _w in cold) / len(cold)
        assert mean_cold > 20 * mean_hot

    def test_sequential_profile_streams_rows(self):
        reqs = take(TraceGenerator(stream_profile(), GEOMETRY, 0), 400)
        # High-locality stream: most consecutive accesses share the row.
        same = sum(
            1 for (g1, a, w1), (g2, b, w2) in zip(reqs, reqs[1:])
            if (a.row, a.bank, a.rank) == (b.row, b.bank, b.rank))
        assert same / len(reqs) > 0.7

    def test_zipf_concentrates_accesses(self):
        flat = WorkloadProfile("flat", mpki=20, row_buffer_locality=0.0,
                               footprint_pages=4096)
        hot = WorkloadProfile("hot", mpki=20, row_buffer_locality=0.0,
                              footprint_pages=4096, zipf_alpha=1.2)
        def top_share(profile):
            counts = {}
            for _g, loc, _w in take(
                    TraceGenerator(profile, GEOMETRY, 0, seed=9), 2000):
                key = (loc.rank, loc.bank, loc.row)
                counts[key] = counts.get(key, 0) + 1
            return max(counts.values()) / 2000
        assert top_share(hot) > 4 * top_share(flat)

    def test_write_fraction_respected(self):
        p = WorkloadProfile("w", mpki=10, row_buffer_locality=0.0,
                            write_fraction=0.5)
        reqs = take(TraceGenerator(p, GEOMETRY, 0, seed=3), 1000)
        writes = sum(1 for _g, _l, w in reqs if w)
        assert 380 < writes < 620


class TestStreamPin:
    """Materialized streams are pinned draw for draw.

    The digests were recorded from the original SystemRng-backed
    generator.  They cover the nanosecond gaps (so a change too small to
    survive the cycle conversion still fails) and the cycle-converted
    stream the simulator consumes; any change to the order, width or use
    of a random draw, or to the page-to-location arithmetic, fails here.
    """

    PROFILES = {
        "uniform": WorkloadProfile(
            "uniform", mpki=20, row_buffer_locality=0.6,
            write_fraction=0.3, footprint_pages=4096),
        "zipf": WorkloadProfile(
            "zipf", mpki=35, row_buffer_locality=0.4, write_fraction=0.2,
            footprint_pages=32768, zipf_alpha=1.1),
        "sequential": WorkloadProfile(
            "seq", mpki=40, row_buffer_locality=0.9, write_fraction=0.33,
            footprint_pages=16384, sequential=True),
    }
    DIGESTS = {
        "uniform": "6acd479c405e923b389a111120b82b20"
                   "86d02b62c11095d14b8e7abeb5cda13a",
        "zipf": "e97904e1e74290d1b23d36eac01406ae"
                "5ae72e35c78d3a486e1251f67dd04fab",
        "sequential": "9e744d02cccd29ee611ee5b44ae006b1"
                      "76183fd5924fe964dba7afdbf2a9be42",
    }

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_materialized_stream_digest(self, kind):
        gen = TraceGenerator(self.PROFILES[kind], GEOMETRY, thread_id=3,
                             seed=11)
        flat = [(gap_ns, gap, loc.channel, loc.rank, loc.bank, loc.row,
                 loc.column, is_write)
                for (gap_ns, loc, is_write), (gap, _loc, _w) in zip(
                    gen.materialize(3000),
                    gen.materialize(3000, DDR4_2666.tck_ns))]
        digest = hashlib.sha256(repr(flat).encode()).hexdigest()
        assert digest == self.DIGESTS[kind]
        # A gap shorter than one DRAM cycle still waits one cycle, so a
        # thread is never ready again in the cycle it issued (the event
        # loop issues one request per readiness pop).
        tck_ns = 16.0
        assert min(gap_ns for gap_ns, _loc, _w in gen.materialize(3000)) \
            < tck_ns
        assert min(gap for gap, _loc, _w in gen.materialize(3000, tck_ns)) \
            == 1


class TestZipfPageMap:
    """The Zipf page picker is pinned for every profile that uses it.

    A page pick is ``bisect_right(cdf, getrandbits(24) / 2**24)``, so two
    CDFs pick the same page for every draw exactly when each entry rounds
    up to the same multiple of 2**-24.  The digests pin those multiples,
    one per distinct ``(footprint_pages, zipf_alpha)`` of the registry
    profiles and the bench profiles; they were recorded from the numpy
    CDF the generator first used.  A CDF that differs from it only in
    the last bits of some entries (a different ``pow``) still passes.
    """

    DIGESTS = {
        (512, 0.7): "641111b2381e13cbc436a7793990069f"
                    "d37b349d54bdbf396b6dca0b4d2051bd",
        (4096, 0.8): "149d7887366a3575d6ebcc6b153b3d66"
                     "11ab87f4b26ca30ce7b594e52c1ecd26",
        (4096, 0.9): "16d90ef61c9bd594b13626cbf93fda98"
                     "0bd0492db51eead7db217f6c7ef33daf",
        (8192, 0.4): "4d8141d37f63a6cfadbbeba49d934bca"
                     "2fdac70c53974fbcc47c1e2a9625fd13",
        (8192, 0.5): "f0e750b9db5731b3665cf20d56b6fd0f"
                     "d81f9bf10acf9aed4e607eff39dcb43a",
        (16384, 0.7): "466a6d8c1d676b6fb7a3d9282580a092"
                      "e58dd30b0d98e2bc6faff9ae087b5706",
        (16384, 1.4): "3ef87c6659863eeb028f73ee570a6e24"
                      "9ef79368a86f339a993207e64c882018",
        (32768, 1.1): "8daff1c7385e5f50ac01512ff405bdfd"
                      "2ca952cbec65911ed8f83740930d77d4",
    }

    def test_every_zipf_profile_is_pinned(self):
        profiles = [*SPEC_PROFILES.values(), *GAPBS_PROFILES.values(),
                    *NPB_PROFILES.values(),
                    *(bench.workload for bench in BENCH_PROFILES.values())]
        keys = {(p.footprint_pages, p.zipf_alpha) for p in profiles
                if p.zipf_alpha > 0 and not p.sequential}
        assert keys == set(self.DIGESTS)

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_page_map_digest(self, key):
        grid = [math.ceil(c * 16777216) for c in zipf_cdf(*key)]
        digest = hashlib.sha256(repr(grid).encode()).hexdigest()
        assert digest == self.DIGESTS[key]


class TestMixes:
    def test_mix_high_is_all_high(self):
        profiles = mix_high(14)
        assert len(profiles) == 14
        assert all(p.name in SPEC_HIGH for p in profiles)

    def test_mix_blend_spans_groups(self):
        profiles = mix_blend(14)
        classes = {p.intensity_class() for p in profiles}
        assert classes == {"high", "med", "low"}

    def test_mix_random_deterministic_and_varied(self):
        a = mix_random(seed=1, threads=16)
        b = mix_random(seed=1, threads=16)
        c = mix_random(seed=2, threads=16)
        assert [p.name for p in a] == [p.name for p in b]
        assert [p.name for p in a] != [p.name for p in c]
        assert len(a) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            mix_high(0)
        with pytest.raises(ValueError):
            mix_blend(-1)
        with pytest.raises(ValueError):
            mix_random(seed=1, threads=0)
