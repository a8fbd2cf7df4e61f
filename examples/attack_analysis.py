#!/usr/bin/env python3
"""Adversarial-pattern analysis of SHADOW (paper Section VII-A).

Part 1 evaluates the closed-form Appendix XI bounds for the three
attack scenarios across (RAAIMT, H_cnt) -- the machinery behind
Table II.

Part 2 cross-checks the direction of those bounds empirically: it runs
the real SHADOW mechanism against the scenario adversaries on a
scaled-down subarray (so flips are observable) and prints Monte Carlo
flip rates with and without SHADOW's defenses.

Run:  python examples/attack_analysis.py
"""

from repro.analysis.montecarlo import flip_rate
from repro.analysis.security import SecurityAnalysis, SecurityParams
from repro.core import Shadow, ShadowConfig
from repro.dram.subarray import SubarrayLayout
from repro.mitigations.none import NoMitigation
from repro.rowhammer.adversary import ScenarioIAttacker, ScenarioIIAttacker
from repro.utils.rng import SystemRng


def closed_form() -> None:
    print("== Appendix XI closed-form bounds (per DDR5 rank-year) ==")
    for raaimt, hcnt in [(64, 8192), (64, 4096), (32, 2048), (128, 4096)]:
        analysis = SecurityAnalysis(SecurityParams(hcnt=hcnt, raaimt=raaimt))
        r = analysis.rank_year()
        verdict = "SECURE" if r["overall"] < 0.01 else "insecure"
        print(f"  RAAIMT={raaimt:3d} Hcnt={hcnt:5d}: "
              f"P(flip) = {r['overall']:.2e}  [{verdict}]  "
              f"(I={r['scenario1']:.1e} II={r['scenario2']:.1e} "
              f"III={r['scenario3']:.1e})")


def shadow(raaimt: int):
    """A per-trial SHADOW factory: one RFM every ``raaimt`` ACTs, its RNG
    seeded by the trial."""
    return lambda seed: Shadow(ShadowConfig(raaimt=raaimt, rng_kind="system",
                                            rng_seed=seed))


def monte_carlo() -> None:
    """Scaled-down subarray (32 rows).  Parameters are chosen so the
    Appendix XI bound is small for SHADOW at this scale: the attack
    needs many shuffle evasions / random re-hits inside one incremental
    window (see tests/test_analysis_montecarlo.py for the arithmetic)."""
    print("\n== Monte Carlo on a scaled-down subarray (32 rows) ==")
    layout = SubarrayLayout(subarrays_per_bank=2, rows_per_subarray=32)
    scenarios = {
        "scenario I (fresh aggressor per interval, Hcnt=64, RAAIMT=4)":
            (lambda seed: ScenarioIAttacker(layout, subarray=0,
                                            rng=SystemRng(seed)),
             dict(hcnt=64, intervals=300, acts_per_interval=4)),
        "scenario II (4 fixed aggressors, Hcnt=160, RAAIMT=16)":
            (lambda seed: ScenarioIIAttacker(layout, subarray=0, n_aggr=4,
                                             rng=SystemRng(seed)),
             dict(hcnt=160, intervals=120, acts_per_interval=16)),
    }
    for name, (make, params) in scenarios.items():
        raaimt = params["acts_per_interval"]
        protected = flip_rate(make, shadow(raaimt), layout=layout,
                              trials=50, seed=5, **params)
        undefended = flip_rate(make, lambda seed: NoMitigation(),
                               layout=layout, trials=50, seed=5, **params)
        print(f"  {name}:")
        print(f"    flip rate without defense: {undefended:.0%}")
        print(f"    flip rate under SHADOW:    {protected:.0%}")


def main() -> None:
    closed_form()
    monte_carlo()


if __name__ == "__main__":
    main()
