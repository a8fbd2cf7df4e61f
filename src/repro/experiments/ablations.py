"""Ablations of SHADOW's design choices (DESIGN.md Section 6).

Not figures from the paper, but direct tests of the microarchitecture
decisions it motivates:

* **subarray pairing off** -- the remapping-row restore/precharge
  serializes with the target ACT and the remapping-row write is no
  longer hidden (Sections V-B, VI);
* **isolation transistor off** -- the remapping row senses like an
  ordinary row (Section V-A);
* **incremental refresh off** -- protection drops (Monte Carlo flip
  rate under the scenario-II adversary, Section IV-C);
* **LFSR RNG** -- the paper's low-area RNG option (Section VIII)
  performs as the seeded system RNG every other variant uses.

All three studies ride one declarative
:class:`~repro.spec.ExperimentSpec`: the timing and protection studies
are analytic points (``timing-ablation`` / ``protection-ablation``
metrics, no engine jobs), the performance study is a set of
weighted-speedup points over the ``shadow-ablate`` scheme variants.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.montecarlo import flip_rate
from repro.core.config import ShadowConfig
from repro.core.pairing import ShadowTimings
from repro.core.shadow import Shadow
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.experiments.configs import DEFAULT_HCNT, fidelity_config
from repro.experiments.driver import METRICS, AnalyticMetric, run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table
from repro.mitigations.none import NoMitigation
from repro.rowhammer.adversary import ScenarioIIAttacker
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec
from repro.utils.rng import SystemRng


def timing_ablation() -> Dict[str, Dict[str, float]]:
    """Cycle charges of each microarchitecture variant (DDR4-2666)."""
    variants = {
        "full SHADOW": ShadowTimings(DDR4_2666),
        "no pairing": ShadowTimings(DDR4_2666, pairing=False),
        "no isolation": ShadowTimings(DDR4_2666, isolation=False),
        "no incr. refresh": ShadowTimings(DDR4_2666,
                                          incremental_refresh=False),
    }
    return {
        name: {
            "act_extra_cycles": t.act_extra_cycles,
            "trcd_prime_ns": t.trcd_prime_ns,
            "rfm_work_ns": t.rfm_work_ns(),
        }
        for name, t in variants.items()
    }


def protection_ablation(trials: int = 40) -> Dict[str, float]:
    """Scenario-II flip rate with and without the incremental refresh.

    Scaled-down subarray (32 rows) so empirical rates are measurable.
    "No shuffle" is the unprotected bank: SHADOW without RFM work keeps
    its factory mapping, the identity that skips the empty rows.
    """
    layout = SubarrayLayout(subarrays_per_bank=2, rows_per_subarray=32)
    raaimt = 16

    def make(seed: int):
        return ScenarioIIAttacker(layout, subarray=0, n_aggr=4,
                                  rng=SystemRng(seed))

    def shadow(incremental_refresh: bool):
        return lambda seed: Shadow(ShadowConfig(
            raaimt=raaimt, rng_kind="system", rng_seed=seed,
            incremental_refresh=incremental_refresh))

    common = dict(layout=layout, hcnt=160, intervals=120,
                  trials=trials, seed=11, acts_per_interval=raaimt)
    return {
        "with incremental refresh": flip_rate(make, shadow(True), **common),
        "without incremental refresh": flip_rate(
            make, shadow(False), **common),
        "no shuffle (RFM only)": flip_rate(
            make, lambda seed: NoMitigation(), **common),
    }


class _TimingAblation(AnalyticMetric):
    def value(self, rp, plan, results):
        return timing_ablation()


class _ProtectionAblation(AnalyticMetric):
    def value(self, rp, plan, results):
        return protection_ablation(trials=rp.params["trials"])


METRICS.register("timing-ablation", _TimingAblation())
METRICS.register("protection-ablation", _ProtectionAblation())


def spec(fidelity: str = "smoke") -> ExperimentSpec:
    """All three ablation studies as one declarative grid."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    workload = workload_spec("mix-high", threads=fc.threads)
    points = [
        PointSpec("timing-ablation", ("timing",)),
        PointSpec("protection-ablation", ("protection",),
                  params={"trials": 40 if fidelity == "smoke" else 200}),
    ]
    variants = {
        "full SHADOW": scheme_spec("shadow-ablate", hcnt=DEFAULT_HCNT),
        "no pairing": scheme_spec("shadow-ablate", hcnt=DEFAULT_HCNT,
                                  pairing=False),
        "no isolation": scheme_spec("shadow-ablate", hcnt=DEFAULT_HCNT,
                                    isolation=False),
        "LFSR RNG": scheme_spec("shadow-ablate", hcnt=DEFAULT_HCNT,
                                rng_kind="lfsr"),
    }
    for name, scheme in variants.items():
        points.append(PointSpec(
            "ws-relative", ("performance", name),
            workload=workload, scheme=scheme, sim=sim))
    return ExperimentSpec("ablations", fidelity, points)


def run(fidelity: str = "smoke",
        engine: Optional[Engine] = None) -> Dict:
    """Run all three ablation studies; returns the result dict."""
    return run_spec(spec(fidelity), engine=engine)


def render(results: Dict) -> str:
    """The three ablation tables, blank-line separated."""
    timing = [[name, v["act_extra_cycles"], v["trcd_prime_ns"],
               v["rfm_work_ns"]]
              for name, v in results["timing"].items()]
    protection = [[k, v] for k, v in results["protection"].items()]
    performance = [[k, v] for k, v in results["performance"].items()]
    return "\n\n".join([
        format_table(
            ["variant", "ACT extra (cyc)", "tRCD' (ns)", "RFM work (ns)"],
            timing, title="Ablation: timing charges"),
        format_table(["variant", "flip rate"], protection,
                     title="Ablation: scenario-II Monte Carlo flips"),
        format_table(["variant", "rel. weighted speedup"], performance,
                     title="Ablation: performance (mix-high)"),
    ])
