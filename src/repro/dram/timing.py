"""JEDEC timing parameter sets.

All parameters are stored in DRAM clock cycles of the speed grade's tCK.
The two presets used throughout the reproduction match the paper's
configurations: DDR4-2666 (the actual-system rig, Table IV) and DDR5-4800
(the architectural-simulation configuration).

The values follow the paper where stated (19-19-19, tRFC=467, tREFI=10400
for DDR4-2666) and public JEDEC/datasheet values elsewhere.  Exact
nanosecond fidelity is not required for the reproduction's claims -- what
matters is that relative deltas (tRCD increases, tRFM blocking, refresh
overheads) are charged on the correct timescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


def ns_to_cycles(ns: float, tck_ns: float) -> int:
    """Convert a duration in nanoseconds to clock cycles, rounding up."""
    if ns < 0:
        raise ValueError("duration must be non-negative")
    if tck_ns <= 0:
        raise ValueError("tCK must be positive")
    return math.ceil(ns / tck_ns - 1e-9)


@dataclass(frozen=True)
class TimingParams:
    """A complete DRAM timing parameter set (cycles of ``tck_ns``)."""

    name: str
    tck_ns: float

    # Core access timings.
    tCL: int        # ACT->data (CAS latency); tAA in ns terms
    tRCD: int       # ACT -> RD/WR
    tRP: int        # PRE -> ACT
    tRAS: int       # ACT -> PRE (row restoration)
    tWR: int        # end of write data -> PRE
    tRTP: int       # RD -> PRE
    tBL: int        # data burst duration on the bus
    tCWL: int       # WR command -> write data

    # Bank/rank-level spacing.
    tCCD_L: int     # RD->RD same bank group
    tCCD_S: int     # RD->RD different bank group
    tRRD_L: int     # ACT->ACT same bank group
    tRRD_S: int     # ACT->ACT different bank group
    tFAW: int       # four-activate window
    tWTR_L: int     # WR->RD turnaround, same bank group
    tWTR_S: int

    # Refresh machinery.
    tRFC: int       # all-bank refresh cycle time
    tREFI: int      # refresh command interval
    tREFW: int      # refresh window (every row refreshed once per tREFW)

    # DDR5 refresh management (RFM).
    tRFM: int       # bank-blocking time provisioned per RFM command
    raaimt: int = 32   # default RFM threshold (overridden per experiment)

    # Extra ACT latency charged by a mitigation (SHADOW's tRD_RM); kept in
    # the timing set so a configured system has one source of truth.
    act_extra: int = 0

    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for attr in (
            "tCL", "tRCD", "tRP", "tRAS", "tWR", "tRTP", "tBL", "tCWL",
            "tCCD_L", "tCCD_S", "tRRD_L", "tRRD_S", "tFAW", "tWTR_L",
            "tWTR_S", "tRFC", "tREFI", "tREFW", "tRFM",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.tREFI > self.tREFW:
            raise ValueError("tREFI cannot exceed tREFW")
        if self.raaimt <= 0:
            raise ValueError("RAAIMT must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def tRC(self) -> int:
        """ACT-to-ACT time for the same bank (tRAS + tRP)."""
        return self.tRAS + self.tRP

    @property
    def tRCD_effective(self) -> int:
        """tRCD including any mitigation-imposed extra latency (tRCD')."""
        return self.tRCD + self.act_extra

    @property
    def refreshes_per_window(self) -> int:
        """Number of REF commands in one tREFW."""
        return max(1, self.tREFW // self.tREFI)

    def cycles(self, ns: float) -> int:
        """Convert nanoseconds to cycles of this speed grade."""
        return ns_to_cycles(ns, self.tck_ns)

    def nanoseconds(self, cycles: int) -> float:
        """Convert cycles of this speed grade to nanoseconds."""
        return cycles * self.tck_ns

    def with_act_extra(self, extra_cycles: int) -> "TimingParams":
        """Return a copy with ``act_extra`` (e.g. SHADOW's tRD_RM) set."""
        if extra_cycles < 0:
            raise ValueError("extra ACT latency must be non-negative")
        return replace(self, act_extra=extra_cycles)

    def with_trcd(self, trcd: int) -> "TimingParams":
        """Return a copy with a different base tRCD (Fig. 9 sensitivity)."""
        return replace(self, tRCD=trcd)

    def with_refresh_interval(self, trefi: int) -> "TimingParams":
        """Return a copy with a different tREFI (DRR, RFM emulation)."""
        return replace(self, tREFI=trefi)

    def with_raaimt(self, raaimt: int) -> "TimingParams":
        return replace(self, raaimt=raaimt)


def _make_ddr4_2666() -> TimingParams:
    tck = 0.75
    return TimingParams(
        name="DDR4-2666",
        tck_ns=tck,
        tCL=19,                      # paper Table IV: 19-19-19
        tRCD=19,
        tRP=19,
        tRAS=ns_to_cycles(32.0, tck),     # 43 cycles
        tWR=ns_to_cycles(15.0, tck),      # 20
        tRTP=ns_to_cycles(7.5, tck),      # 10
        tBL=4,                            # BL8, double data rate
        tCWL=14,
        tCCD_L=7,
        tCCD_S=4,
        tRRD_L=ns_to_cycles(4.9, tck),    # 7
        tRRD_S=4,
        tFAW=ns_to_cycles(21.0, tck),     # 28
        tWTR_L=ns_to_cycles(7.5, tck),    # 10
        tWTR_S=ns_to_cycles(2.5, tck),    # 4
        tRFC=467,                    # paper Table IV (350 ns)
        tREFI=10400,                 # paper Table IV (7.8 us)
        tREFW=ns_to_cycles(64e6, tck),    # 64 ms
        tRFM=ns_to_cycles(350.0, tck),    # 467
    )


def _make_ddr5_4800() -> TimingParams:
    tck = 1 / 2.4              # 0.4167 ns
    return TimingParams(
        name="DDR5-4800",
        tck_ns=tck,
        tCL=40,
        tRCD=ns_to_cycles(16.0, tck),     # 39
        tRP=ns_to_cycles(16.0, tck),      # 39
        tRAS=ns_to_cycles(32.0, tck),     # 77
        tWR=ns_to_cycles(30.0, tck),      # 72
        tRTP=ns_to_cycles(7.5, tck),      # 18
        tBL=8,                            # BL16
        tCWL=38,
        tCCD_L=12,
        tCCD_S=8,
        tRRD_L=12,
        tRRD_S=8,
        tFAW=32,
        tWTR_L=ns_to_cycles(10.0, tck),   # 24
        tWTR_S=ns_to_cycles(2.5, tck),    # 6
        tRFC=ns_to_cycles(410.0, tck),    # 16 Gb die
        tREFI=ns_to_cycles(3900.0, tck),  # 3.9 us
        tREFW=ns_to_cycles(32e6, tck),    # 32 ms
        tRFM=ns_to_cycles(350.0, tck),    # 840
    )


#: DDR4-2666: the paper's actual-system configuration (Table IV).
DDR4_2666 = _make_ddr4_2666()

#: DDR5-4800: the paper's architectural-simulation configuration.
DDR5_4800 = _make_ddr5_4800()


# -- spec-registry entries ---------------------------------------------------------
#
# Speed grades register by name so a ``TimingSpec`` (and therefore any
# serialized experiment) can select one from plain data.

from repro.spec.registry import TIMINGS as _TIMINGS

_TIMINGS.register("DDR4-2666", lambda: DDR4_2666)
_TIMINGS.register("DDR5-4800", lambda: DDR5_4800)
