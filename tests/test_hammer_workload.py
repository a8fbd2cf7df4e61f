"""Hammer workload profiles and their trace-generator dispatch."""

import dataclasses

import pytest

from repro.rowhammer.attacks import double_sided, many_sided
from repro.sim import SystemConfig
from repro.spec.registry import WORKLOADS
from repro.workloads.hammer import (
    HammerProfile,
    HammerTraceGenerator,
    hammer_profile,
)

GEOMETRY = SystemConfig().geometry


class TestProfile:
    def test_pattern_matches_attack_generators(self):
        profile = hammer_profile("double-sided", victim_row=100)
        assert profile.pattern().aggressor_rows == \
            double_sided(100).aggressor_rows
        profile = hammer_profile("many-sided", victim_row=100, sides=5)
        assert profile.pattern().aggressor_rows == \
            many_sided(100, sides=5).aggressor_rows

    def test_unknown_attack_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown attack"):
            HammerProfile(attack="quadruple-sided")
        with pytest.raises(ValueError):
            HammerProfile(victim_row=-1)

    def test_profile_is_picklable_and_asdictable(self):
        import pickle
        profile = hammer_profile("blast", victim_row=50, radius=2)
        assert pickle.loads(pickle.dumps(profile)) == profile
        payload = dataclasses.asdict(profile)
        assert payload["attack"] == "blast"
        assert payload["name"] == "hammer-blast"


class TestTraceGenerator:
    def test_materialize_rotates_the_pattern(self):
        profile = hammer_profile("double-sided", victim_row=100)
        generator = profile.trace_generator(GEOMETRY, 0, seed=1,
                                            cpu_ghz=3.0)
        ops = generator.materialize(5, tck_ns=0.75)
        rows = [loc.row for _, loc, _ in ops]
        assert rows == [99, 101, 99, 101, 99]
        for gap, loc, is_write in ops:
            assert gap == 1                   # activation-bound
            assert not is_write
            assert (loc.channel, loc.rank, loc.bank) == (0, 0, 0)
            assert loc.column == 0

    def test_victim_outside_bank_rejected(self):
        rows = GEOMETRY.rows_per_bank
        with pytest.raises(ValueError, match="outside the bank"):
            HammerTraceGenerator(
                HammerProfile(victim_row=rows + 5), GEOMETRY)

    def test_count_validation(self):
        generator = hammer_profile().trace_generator(GEOMETRY, 0, 1, 3.0)
        with pytest.raises(ValueError):
            generator.materialize(-1)
        assert generator.materialize(0) == []


class TestRegistry:
    def test_hammer_workload_registered(self):
        profiles = WORKLOADS.build("hammer", attack="single-sided",
                                   victim_row=33)
        assert len(profiles) == 1
        assert profiles[0].attack == "single-sided"
        assert profiles[0].victim_row == 33

    def test_threads_fan_out(self):
        profiles = WORKLOADS.build("hammer", threads=3)
        assert len(profiles) == 3
        assert all(p.attack == "double-sided" for p in profiles)
