"""Adversarial hammer workloads for the red-team harness.

A :class:`HammerProfile` drives the *timing simulator* with one of the
attack patterns from :mod:`repro.rowhammer.attacks` -- unlike the
statistical :class:`~repro.workloads.trace.WorkloadProfile` streams, the
access sequence here is exactly the aggressor-row rotation a real
attacker issues, aimed at one bank so every access is an activation
(run with ``mlp=1`` so FR-FCFS cannot batch row hits).

The profile is a frozen dataclass like ``WorkloadProfile`` (picklable,
``asdict``-able, carries a ``name``), and plugs into the system through
the ``trace_generator`` hook that
:func:`~repro.workloads.trace.thread_traces` dispatches on: any profile
exposing ``trace_generator(geometry, thread_id, seed, cpu_ghz)`` supplies
its own generator; plain profiles keep the default
:class:`~repro.workloads.trace.TraceGenerator` path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.controller.address import MemoryLocation
from repro.dram.device import DramGeometry
from repro.rowhammer.attacks import (
    AttackPattern,
    blast_attack,
    double_sided,
    half_double,
    many_sided,
    single_sided,
)


@dataclass(frozen=True)
class HammerProfile:
    """One attacking thread replaying an adversarial access pattern."""

    name: str = "hammer-double-sided"
    attack: str = "double-sided"
    victim_row: int = 260        # MC row the attacker wants to flip
    sides: int = 9               # width of the many-sided pattern
    radius: int = 2              # distance of the blast-attack aggressors
    channel: int = 0
    rank: int = 0
    bank: int = 0
    #: Back-to-back issue: the attacker is activation-bound, not
    #: compute-bound, so the gap collapses to the 1-cycle minimum.
    gap_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.victim_row < 0:
            raise ValueError("victim_row must be non-negative")
        self.pattern()   # validates the attack name eagerly

    def pattern(self) -> AttackPattern:
        """The aggressor-row pattern this profile replays."""
        if self.attack == "single-sided":
            return single_sided(self.victim_row)
        if self.attack == "double-sided":
            return double_sided(self.victim_row)
        if self.attack == "many-sided":
            return many_sided(self.victim_row, sides=self.sides)
        if self.attack == "half-double":
            return half_double(self.victim_row)
        if self.attack == "blast":
            return blast_attack(self.victim_row, radius=self.radius)
        raise ValueError(
            f"unknown attack {self.attack!r}; choose from "
            "['single-sided', 'double-sided', 'many-sided', "
            "'half-double', 'blast']")

    def trace_generator(self, geometry: DramGeometry, thread_id: int,
                        seed: int, cpu_ghz: float) -> "HammerTraceGenerator":
        """Trace dispatch hook (same signature intent as
        ``TraceGenerator(profile, geometry, thread_id, seed, cpu_ghz)``)."""
        return HammerTraceGenerator(self, geometry)


class HammerTraceGenerator:
    """Deterministic aggressor-rotation stream (reads, fixed column)."""

    def __init__(self, profile: HammerProfile, geometry: DramGeometry):
        self.profile = profile
        rows = geometry.rows_per_bank
        if profile.victim_row >= rows:
            raise ValueError(
                f"victim_row {profile.victim_row} outside the bank "
                f"({rows} rows)")
        self._rows = [row % rows for row in profile.pattern().aggressor_rows]

    def materialize(self, count: int, tck_ns: Optional[float] = None
                    ) -> List[Tuple[float, MemoryLocation, bool]]:
        """The first ``count`` accesses of the endless rotation."""
        if count < 0:
            raise ValueError("count must be non-negative")
        profile = self.profile
        if tck_ns is None:
            gap = profile.gap_ns
        else:
            gap = max(1, int(profile.gap_ns / tck_ns))
        rows = self._rows
        n = len(rows)
        return [
            (gap,
             MemoryLocation(profile.channel, profile.rank, profile.bank,
                            rows[i % n], 0),
             False)
            for i in range(count)
        ]


def hammer_profile(attack: str = "double-sided", victim_row: int = 260,
                   sides: int = 9, radius: int = 2) -> HammerProfile:
    """Convenience constructor naming the profile after its attack."""
    return HammerProfile(name=f"hammer-{attack}", attack=attack,
                         victim_row=victim_row, sides=sides, radius=radius)


__all__ = ["HammerProfile", "HammerTraceGenerator", "hammer_profile"]
