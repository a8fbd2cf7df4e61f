"""Red-team harness: adversary suite x mitigation zoo, end to end.

Every attack pattern from :mod:`repro.rowhammer.attacks` replays through
the full timing simulator (FR-FCFS, refresh, RFM, the scheme's actual
command stream) with an in-loop :class:`~repro.faults.FaultInjector` on
the controller's observer seam, against every registered mitigation the
registry can build from ``hcnt``.  Where the analytic security models
bound failure probabilities, this measures outcomes: time to first bit
flip, ECC-corrected vs detected-uncorrectable vs silent counts, and the
degradation events (sPPR retires, retries, panics) each scheme's
survivors trigger.

Smoke fidelity is the CI discrimination check: the same adversarial
trace and seed must produce at least one detected-uncorrectable flip
under ``none`` and zero flips under ``shadow``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import Engine, Job, JobResult
from repro.experiments.extended import matrix_schemes
from repro.experiments.report import format_table
from repro.sim.system import SystemConfig
from repro.spec import FaultSpec, scheme_spec
from repro.spec.registry import SCHEMES
from repro.workloads.hammer import hammer_profile

#: Attack patterns the harness replays (names of ``HammerProfile.attack``).
SMOKE_ATTACKS: Tuple[str, ...] = ("double-sided",)
FULL_ATTACKS: Tuple[str, ...] = ("double-sided", "many-sided",
                                 "half-double", "blast")

#: MC row the attacker aims at: mid-subarray so every pattern's
#: aggressors stay inside one subarray at the default layout.
VICTIM_ROW = 260

_FIDELITY_HCNT = {"smoke": 1024, "full": 4096}

#: Victim disturbance weight one activation of the pattern deposits on
#: average (blast_weight over the rotation): sizes the request budget so
#: an undefended victim crosses ``hcnt`` with headroom to spare.
_ATTACK_EFFICIENCY = {
    "single-sided": 0.5,
    "double-sided": 1.0,
    # The many-sided victims are the decoy rows *between* aggressor
    # pairs: each is double-sided-hammered once per 9-act rotation.
    "many-sided": 2.0 / 9.0,
    "half-double": 0.5,
    "blast": 0.5,
}


def redteam_schemes(fidelity: str) -> List[str]:
    """Schemes under attack: the full registry zoo, or the CI pair."""
    if fidelity == "smoke":
        return ["none", "shadow"]
    return ["none"] + matrix_schemes()


def _fault_spec(hcnt: int, policy: str, seed: int,
                attack: str) -> FaultSpec:
    # Half-Double's far aggressors only matter when the defender's own
    # targeted refreshes hammer their neighbours.
    return FaultSpec(hcnt=hcnt, policy=policy, seed=seed,
                     refresh_hammers_neighbors=(attack == "half-double"))


def jobs(fidelity: str = "smoke", hcnt: Optional[int] = None,
         policy: str = "retire", seed: int = 1,
         schemes: Optional[Sequence[str]] = None,
         attacks: Optional[Sequence[str]] = None
         ) -> Dict[Tuple[str, str], Job]:
    """One job per (scheme, attack) cell, all sharing trace and seed."""
    hcnt = hcnt if hcnt is not None else _FIDELITY_HCNT[fidelity]
    schemes = list(schemes) if schemes else redteam_schemes(fidelity)
    attacks = tuple(attacks) if attacks \
        else (SMOKE_ATTACKS if fidelity == "smoke" else FULL_ATTACKS)
    grid: Dict[Tuple[str, str], Job] = {}
    for name in schemes:
        spec = scheme_spec(
            name, **SCHEMES.buildable_params(name, {"hcnt": hcnt}))
        for attack in attacks:
            # Enough activations for the undefended victim to cross hcnt
            # at the pattern's deposit rate, plus headroom for the
            # birthday collision that turns corrected flips into an
            # uncorrectable one.
            efficiency = _ATTACK_EFFICIENCY.get(attack, 1.0)
            requests = int(hcnt / efficiency) + max(512, hcnt // 2)
            # mlp=1 so FR-FCFS cannot batch the rotation into row hits
            # -- every access is the activation a real hammer loop
            # produces.
            config = SystemConfig(requests_per_thread=requests, mlp=1,
                                  seed=seed)
            grid[(name, attack)] = Job(
                profiles=(hammer_profile(attack, victim_row=VICTIM_ROW),),
                scheme=spec,
                config=config,
                faults=_fault_spec(hcnt, policy, seed, attack))
    return grid


def _entry(result: JobResult) -> Dict:
    faults = result.faults or {}
    counts = faults.get("counts", {})
    first = faults.get("first_flip_cycle")
    return {
        "cycles": result.cycles,
        "acts": result.acts,
        "time_to_first_flip_ns": (
            first * result.tck_ns if first is not None else None),
        "bits_injected": counts.get("bits_injected", 0),
        "corrected": counts.get("corrected", 0),
        "uncorrectable": counts.get("uncorrectable", 0),
        "silent": counts.get("silent", 0),
        "rows_flipped": faults.get("rows_flipped", 0),
        "repairs": counts.get("repairs", 0),
        "retries": counts.get("retries", 0),
        "panics": counts.get("panics", 0),
        "degradation_events": faults.get("degradation_events_total", 0),
        "panicked": faults.get("panicked", False),
    }


def run(fidelity: str = "smoke",
        engine: Optional[Engine] = None, hcnt: Optional[int] = None,
        policy: str = "retire", seed: int = 1,
        schemes: Optional[Sequence[str]] = None,
        attacks: Optional[Sequence[str]] = None) -> Dict:
    """Run the grid; returns the JSON-able report."""
    engine = engine if engine is not None else Engine()
    hcnt = hcnt if hcnt is not None else _FIDELITY_HCNT[fidelity]
    grid = jobs(fidelity, hcnt=hcnt, policy=policy, seed=seed,
                schemes=schemes, attacks=attacks)
    results = engine.run(list(grid.values()))
    table: Dict[str, Dict[str, Dict]] = {}
    for (scheme, attack), job in grid.items():
        result = results.get(job)
        if result is not None:
            table.setdefault(scheme, {})[attack] = _entry(result)
    report = {
        "fidelity": fidelity,
        "hcnt": hcnt,
        "policy": policy,
        "seed": seed,
        "victim_row": VICTIM_ROW,
        "attacks": sorted({attack for _, attack in grid}),
        "schemes": table,
    }
    if engine.failures:
        report["failures"] = engine.failure_report()
    return report


def render(report: Dict) -> str:
    """The per-(scheme, attack) outcome table."""
    rows = []
    for scheme in sorted(report["schemes"]):
        for attack, entry in sorted(report["schemes"][scheme].items()):
            ttff = entry["time_to_first_flip_ns"]
            rows.append([
                scheme, attack,
                f"{ttff / 1000.0:.1f}us" if ttff is not None else "-",
                entry["bits_injected"], entry["corrected"],
                entry["uncorrectable"], entry["silent"],
                entry["repairs"], entry["panics"],
                entry["degradation_events"],
            ])
    return format_table(
        ["scheme", "attack", "first-flip", "bits", "corr", "uncorr",
         "silent", "repairs", "panics", "events"],
        rows,
        title=(f"Red team: Hcnt={report['hcnt']}, "
               f"policy={report['policy']}, seed={report['seed']} "
               f"({report['fidelity']})"))
