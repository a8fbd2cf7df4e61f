#!/usr/bin/env python3
"""Row Hammer end to end: flip bits, then watch SHADOW stop the attack.

Drives the full simulated memory system (cores -> FR-FCFS controller ->
DRAM timing model -> disturbance fault model) with classic attack
patterns.  Without protection, double-sided and blast attacks flip the
victim; with SHADOW the aggressor gets relocated out from under the
attacker.

Run:  python examples/rowhammer_demo.py
"""

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.core import Shadow, ShadowConfig
from repro.dram.device import DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations import NoMitigation
from repro.rowhammer import DisturbanceModel, HammerConfig, blast_attack, double_sided

GEOMETRY = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=128),
)
HCNT = 2000          # a low threshold, as on vulnerable modern parts
TOTAL_ACTS = 12000   # hammer budget within one refresh window


def hammer(pattern, mitigation) -> DisturbanceModel:
    """Replay an attack pattern through the full controller stack."""
    device = DramDevice(GEOMETRY, DDR4_2666)
    model = DisturbanceModel(
        HammerConfig(hcnt=HCNT, blast_radius=3, layout=GEOMETRY.layout))
    mc = MemoryController(device, mitigation, observer=model,
                          config=McConfig(enable_refresh=False))
    cycle = 0
    for i, row in enumerate(pattern.rows(TOTAL_ACTS)):
        request = MemoryRequest(
            location=MemoryLocation(0, 0, 0, row, column=0),
            is_write=False, thread_id=0, arrival=cycle)
        mc.enqueue(request)
        # Drain serially so every access is a fresh activation (the
        # attacker's cache-flush + fence loop).
        while mc.pending_requests():
            _done, wake = mc.drain(0, cycle)
            if mc.pending_requests() == 0:
                break
            cycle = wake if wake and wake > cycle else cycle + 1
        cycle = max(cycle, request.completed or cycle)
        if model.flipped:
            break
    return model


def report(name: str, model: DisturbanceModel) -> None:
    if model.flipped:
        flip = model.first_flip()
        print(f"  {name}: BIT FLIP in DA row {flip.da_row} after "
              f"{model.total_acts} activations "
              f"(disturbance {flip.disturbance:.0f} >= Hcnt {HCNT})")
    else:
        print(f"  {name}: no flips after {model.total_acts} activations "
              f"(max disturbance {model.max_disturbance():.0f} "
              f"of Hcnt {HCNT})")


def main() -> None:
    victim = 64
    patterns = {
        "double-sided": double_sided(victim),
        "blast (distance 2)": blast_attack(victim, radius=2),
    }

    print(f"== unprotected DRAM (Hcnt={HCNT}) ==")
    for name, pattern in patterns.items():
        report(name, hammer(pattern, NoMitigation()))

    print("\n== SHADOW (RAAIMT=32) ==")
    for name, pattern in patterns.items():
        shadow = Shadow(ShadowConfig(raaimt=32, rng_seed=3))
        report(name, hammer(pattern, shadow))
        print(f"      ({shadow.total_shuffles()} shuffles relocated the "
              f"aggressors mid-attack)")


if __name__ == "__main__":
    main()
