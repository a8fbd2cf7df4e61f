"""Workload generators standing in for the paper's benchmark suites.

The paper evaluates on SPEC CPU2017, GAPBS (Kronecker 2^26), NPB
class C, and a random-stream adversarial microbenchmark, grouped by
memory intensity (spec-high / spec-med / spec-low, Section VII-C).
Real binaries and traces are unavailable here, so each named
application gets a :class:`~repro.workloads.trace.WorkloadProfile`
capturing exactly the properties that drive every mitigation's
overhead: ACT rate (from MPKI), row-buffer locality, write share, and
footprint.  Mixes reproduce the paper's mix-high / mix-blend /
mix-random constructions by name.
"""

from repro.workloads.gapbs import GAPBS_PROFILES
from repro.workloads.mixes import mix_blend, mix_high, mix_random
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.spec import (
    SPEC_HIGH,
    SPEC_LOW,
    SPEC_MED,
    SPEC_PROFILES,
    spec_group,
)
from repro.workloads.synthetic import (
    pointer_chase_profile,
    random_stream_profile,
    stream_profile,
)
from repro.workloads.trace import TraceGenerator, WorkloadProfile

# -- spec-registry entries ---------------------------------------------------------
#
# Each factory returns the profile list one ``WorkloadSpec`` resolves
# to, so a workload is nameable from plain data (CLI flags, experiment
# grids, rehydrated JSON jobs).

import difflib as _difflib

from repro.spec.registry import WORKLOADS as _WORKLOADS


def _named_profile(table, table_name, app):
    try:
        return table[app]
    except KeyError:
        hint = ""
        close = _difflib.get_close_matches(app, table, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        raise ValueError(f"unknown {table_name} application {app!r}{hint}; "
                         f"choose from {sorted(table)}") from None


@_WORKLOADS.register("spec")
def _spec_app(app: str, threads: int = 1):
    return [_named_profile(SPEC_PROFILES, "SPEC", app)] * threads


@_WORKLOADS.register("spec-group")
def _spec_group(group: str):
    return spec_group(group)


@_WORKLOADS.register("gapbs")
def _gapbs_app(app: str, threads: int = 1):
    return [_named_profile(GAPBS_PROFILES, "GAPBS", app)] * threads


@_WORKLOADS.register("npb")
def _npb_app(app: str, threads: int = 1):
    return [_named_profile(NPB_PROFILES, "NPB", app)] * threads


_WORKLOADS.register("mix-high", mix_high)
_WORKLOADS.register("mix-blend", mix_blend)
_WORKLOADS.register("mix-random", mix_random)


@_WORKLOADS.register("stream")
def _stream(mpki: float = 40.0, threads: int = 1):
    return [stream_profile(mpki)] * threads


@_WORKLOADS.register("random-stream")
def _random_stream(mpki: float = 150.0, threads: int = 1):
    return [random_stream_profile(mpki)] * threads


@_WORKLOADS.register("pointer-chase")
def _pointer_chase(mpki: float = 30.0, threads: int = 1):
    return [pointer_chase_profile(mpki)] * threads


@_WORKLOADS.register("hammer")
def _hammer(attack: str = "double-sided", victim_row: int = 260,
            sides: int = 9, radius: int = 2, threads: int = 1):
    from repro.workloads.hammer import hammer_profile
    return [hammer_profile(attack, victim_row=victim_row,
                           sides=sides, radius=radius)] * threads

__all__ = [
    "GAPBS_PROFILES",
    "NPB_PROFILES",
    "SPEC_HIGH",
    "SPEC_LOW",
    "SPEC_MED",
    "SPEC_PROFILES",
    "TraceGenerator",
    "WorkloadProfile",
    "mix_blend",
    "mix_high",
    "mix_random",
    "pointer_chase_profile",
    "random_stream_profile",
    "spec_group",
    "stream_profile",
]
