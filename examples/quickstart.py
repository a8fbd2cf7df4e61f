#!/usr/bin/env python3
"""Quickstart: simulate a workload on SHADOW-protected DRAM.

Builds the paper's DDR4-2666 system (Table IV organisation), runs a
memory-intensive SPEC-like workload with and without SHADOW, and prints
the performance cost, the RFM/shuffle activity, and a peek at a
subarray's randomized PA-to-DA mapping.

Run:  python examples/quickstart.py
"""

from repro.core import Shadow, ShadowConfig
from repro.dram.device import BankAddress
from repro.mitigations import NoMitigation
from repro.sim import System, SystemConfig
from repro.workloads import SPEC_PROFILES


def main() -> None:
    config = SystemConfig(requests_per_thread=3000, seed=42)
    workload = [SPEC_PROFILES["mcf"]]  # pointer-chasing, memory-heavy

    print("== baseline (no Row Hammer protection) ==")
    base = System(workload, NoMitigation(), config=config).run()
    print(f"  {base.requests_issued} requests in {base.cycles} DRAM cycles"
          f" ({base.stats.acts} activations, {base.refreshes} refreshes)")

    print("\n== SHADOW (RAAIMT=64, the secure config for Hcnt=4K) ==")
    shadow = Shadow(ShadowConfig(raaimt=64, rng_seed=7))
    protected = System(workload, shadow, config=config).run()
    slowdown = protected.cycles / base.cycles - 1.0
    print(f"  {protected.requests_issued} requests in {protected.cycles} "
          f"DRAM cycles")
    print(f"  slowdown vs baseline: {slowdown:+.2%} "
          f"(paper: <2%; our MLP-limited core hides less of the tRCD'"
          f" addition on this latency-bound workload -- see"
          f" EXPERIMENTS.md, Figure 8)")
    print(f"  RFM commands: {protected.rfms}, row-shuffles: "
          f"{shadow.total_shuffles()}, incremental refreshes: "
          f"{shadow.total_incremental_refreshes()}")
    print(f"  extra ACT latency charged: {shadow.act_extra_cycles} cycles "
          f"(tRCD' = {19 + shadow.act_extra_cycles} tCK; paper: 25 tCK)")

    # Inspect one bank's remapping state.
    addr = BankAddress(0, 0, 0)
    controller = shadow.controller(addr)
    shadow.check_invariants()
    print("\n== PA-to-DA mapping of bank (0,0,0), subarray 0 ==")
    remap = controller.remapping_row(0)
    moved = [(pa, da) for pa, da in enumerate(remap.pa_to_da) if pa != da]
    print(f"  {len(moved)} of {remap.rows} rows relocated; empty slot at "
          f"DA {remap.empty_slot}; incremental pointer at {remap.incr_ptr}")
    for pa, da in moved[:8]:
        print(f"    PA row {pa:4d} -> DA slot {da:4d}")
    if len(moved) > 8:
        print(f"    ... and {len(moved) - 8} more")


if __name__ == "__main__":
    main()
