"""SHADOW factory functions and their spec-registry entries.

These are the canonical ways to construct a SHADOW instance from plain
keyword parameters; the spec layer's scheme registry points here, so
``SchemeSpec("shadow", ...)`` -- from the CLI, the experiment driver or
a rehydrated JSON job -- always builds through the same code path.

SHADOW draws its random rows from the seeded system RNG unless a
factory's ``rng_kind`` asks for the paper's low-area LFSR (the
ablation's ``LFSR RNG`` variant does).  The paper's PRINCE RNG unit
appears only as a gate count in the area model
(:mod:`repro.analysis.area`).
"""

from __future__ import annotations

from repro.core.config import ShadowConfig, secure_raaimt
from repro.core.pairing import CircuitTimings
from repro.core.shadow import Shadow
from repro.spec.registry import SCHEMES


@SCHEMES.register("shadow")
def make_shadow(hcnt: int, seed: int = 1) -> Shadow:
    """SHADOW at the Table II secure RAAIMT for ``hcnt``."""
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind="system", rng_seed=seed))


@SCHEMES.register("shadow-trcd")
def make_shadow_with_trcd(trcd: int, hcnt: int,
                          base_trcd: int = 19,
                          tck_ns: float = 0.75,
                          seed: int = 1) -> Shadow:
    """SHADOW with an overridden tRCD' (Figure 9 sensitivity).

    The circuit model's tRD_RM is adjusted so the charged ACT extra
    lands exactly at ``trcd - base_trcd`` cycles.  ``seed`` pins the
    shuffle RNG exactly as :func:`make_shadow` does, so Figure 9 runs
    are as reproducible as Figure 8's.
    """
    if trcd <= base_trcd:
        raise ValueError("tRCD' must exceed the base tRCD")
    extra_cycles = trcd - base_trcd
    # cycles() rounds up, so aim just inside the target cycle count.
    trd_rm_ns = (extra_cycles - 0.5) * tck_ns
    circuit = CircuitTimings(trd_rm_ns=trd_rm_ns)
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind="system", rng_seed=seed,
                               circuit=circuit))


@SCHEMES.register("shadow-ablate")
def make_shadow_ablate(hcnt: int, rng_kind: str = "system",
                       pairing: bool = True,
                       isolation: bool = True) -> Shadow:
    """SHADOW with individual microarchitecture options toggled off."""
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind=rng_kind, pairing=pairing,
                               isolation=isolation))


@SCHEMES.register("shadow-raw")
def make_shadow_raw(raaimt: int, rng_kind: str = "system",
                    seed: int = 1) -> Shadow:
    """SHADOW at an explicit RAAIMT (bench profiles, ad-hoc runs)."""
    return Shadow(ShadowConfig(raaimt=raaimt, rng_kind=rng_kind,
                               rng_seed=seed))


__all__ = [
    "make_shadow",
    "make_shadow_ablate",
    "make_shadow_raw",
    "make_shadow_with_trcd",
]
