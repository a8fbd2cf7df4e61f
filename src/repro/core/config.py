"""SHADOW configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pairing import CircuitTimings

#: Secure RAAIMT per H_cnt -- the bold diagonal of paper Table II.
SECURE_RAAIMT = {16384: 256, 8192: 128, 4096: 64, 2048: 32}


def secure_raaimt(hcnt: int) -> int:
    """The largest RAAIMT meeting the 1%/rank-year budget at ``hcnt``."""
    if hcnt <= 0:
        raise ValueError("hcnt must be positive")
    if hcnt in SECURE_RAAIMT:
        return SECURE_RAAIMT[hcnt]
    return max(1, hcnt // 64)


@dataclass(frozen=True)
class ShadowConfig:
    """Everything a SHADOW deployment chooses.

    ``raaimt`` is the RFM threshold (Table II's security analysis picks
    it per ``H_cnt``); ``rng_kind`` selects the RNG that draws the
    shuffle's random rows: "system", the seeded generator every
    simulation uses, or "lfsr", the paper's low-area option (Section
    VIII); the three booleans expose the microarchitecture ablations.
    """

    raaimt: int = 64
    rng_kind: str = "system"
    rng_seed: int = 1
    pairing: bool = True
    isolation: bool = True
    incremental_refresh: bool = True
    circuit: CircuitTimings = field(default_factory=CircuitTimings)

    def __post_init__(self) -> None:
        if self.raaimt <= 0:
            raise ValueError("raaimt must be positive")
        if self.rng_kind not in ("system", "lfsr"):
            raise ValueError(f"unknown rng_kind {self.rng_kind!r}")

    @classmethod
    def for_hcnt(cls, hcnt: int, **overrides) -> "ShadowConfig":
        """The secure configuration for a threshold (Table II)."""
        return cls(raaimt=secure_raaimt(hcnt), **overrides)
