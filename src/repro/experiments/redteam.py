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

The grid is an :class:`~repro.spec.ExperimentSpec` like every other
figure: one ``faults`` point per (scheme, attack) cell, whose params are
the cell's :class:`~repro.spec.FaultSpec`.  ``experiment redteam
--dump-spec`` prints it; an edited copy (another ``policy``, ``hcnt`` or
``seed``) runs through ``run --spec``.

Smoke fidelity is the CI discrimination check: the same adversarial
trace and seed must produce at least one detected-uncorrectable flip
under ``none`` and zero flips under ``shadow``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine
from repro.experiments.extended import matrix_schemes
from repro.experiments.report import format_table
from repro.spec import (
    ExperimentSpec,
    PointSpec,
    SimSpec,
    scheme_spec,
    workload_spec,
)
from repro.spec.registry import SCHEMES

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


def spec(fidelity: str = "smoke", hcnt: Optional[int] = None,
         seed: int = 1, schemes: Optional[Sequence[str]] = None,
         attacks: Optional[Sequence[str]] = None) -> ExperimentSpec:
    """The grid as data: one ``faults`` point per (scheme, attack) cell,
    all sharing trace and seed, the attacks in sorted order."""
    hcnt = hcnt if hcnt is not None else _FIDELITY_HCNT[fidelity]
    schemes = list(schemes) if schemes else redteam_schemes(fidelity)
    attacks = sorted(set(attacks or (
        SMOKE_ATTACKS if fidelity == "smoke" else FULL_ATTACKS)))
    points = []
    for name in schemes:
        scheme = scheme_spec(
            name, **SCHEMES.buildable_params(name, {"hcnt": hcnt}))
        for attack in attacks:
            # Enough activations for the undefended victim to cross hcnt
            # at the pattern's deposit rate, plus headroom for the
            # birthday collision that turns corrected flips into an
            # uncorrectable one.
            efficiency = _ATTACK_EFFICIENCY.get(attack, 1.0)
            requests = int(hcnt / efficiency) + max(512, hcnt // 2)
            points.append(PointSpec(
                "faults", ("schemes", name, attack),
                workload=workload_spec("hammer", attack=attack,
                                       victim_row=VICTIM_ROW),
                scheme=scheme,
                sim=SimSpec(requests=requests, seed=seed),
                # Half-Double's far aggressors only matter when the
                # defender's own targeted refreshes hammer their
                # neighbours.
                params={"hcnt": hcnt, "policy": "retire", "seed": seed,
                        "refresh_hammers_neighbors":
                            attack == "half-double"}))
    return ExperimentSpec("redteam", fidelity, points, labels={
        "hcnt": "params.hcnt", "policy": "params.policy",
        "seed": "params.seed", "victim_row": "workload.victim_row",
        "attacks": ["workload.attack"]})


def run(fidelity: str = "smoke", engine: Optional[Engine] = None,
        hcnt: Optional[int] = None, seed: int = 1,
        schemes: Optional[Sequence[str]] = None,
        attacks: Optional[Sequence[str]] = None) -> Dict:
    """Run the grid; returns the JSON-able report."""
    return run_spec(spec(fidelity, hcnt, seed, schemes, attacks),
                    engine=engine)


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
