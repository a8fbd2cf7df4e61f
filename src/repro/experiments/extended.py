"""Extended comparison: every registered scheme on one mix.

Beyond the paper's figure sets: the comparison set is drawn from the
central scheme registry (:data:`repro.spec.SCHEMES`), so it includes
Graphene, stand-alone PARA, the post-paper MINT and DAPPER trackers,
and every future scheme that registers an ``hcnt``-buildable factory --
no table here to keep in sync.  The Section VIII filtered-RFM variant
of SHADOW is the one extra row (registry entry ``filtered``, which
wraps another scheme and so is not ``hcnt``-buildable on its own).

One declarative :class:`~repro.spec.ExperimentSpec`: each row is a
``ws-relative`` point plus two ``shared-count`` points (RFMs issued,
RFMs the hazard filter skipped) that read the same shared scheme run,
so the counts cost no extra simulation.  CI drives it under
``--keep-going`` as the ``tracker-matrix`` job: a scheme whose
construction or simulation breaks turns into an engine failure and a
nonzero exit instead of silently falling out of the comparison set.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.configs import DEFAULT_HCNT, fidelity_config
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec
from repro.spec.registry import SCHEMES

#: Registry entries with no row: ``none`` is the baseline every ratio
#: divides by, ``shadow-ablate`` duplicates ``shadow`` at its default
#: toggles.
_SKIP = frozenset({"none", "shadow-ablate"})

#: Registry name -> table label; unlisted names print as registered.
_DISPLAY = {
    "shadow": "SHADOW",
    "parfm": "PARFM",
    "para": "PARA",
    "mithril-perf": "Mithril-perf",
    "mithril-area": "Mithril-area",
    "graphene": "Graphene",
    "blockhammer": "BlockHammer",
    "rrs": "RRS",
    "drr": "DRR",
    "mint": "MINT",
    "dapper": "DAPPER",
}

#: Per-row columns: (metric, output key, point params).
_COLUMNS = (
    ("ws-relative", "relative_performance", {}),
    ("shared-count", "rfms", {"stat": "rfms"}),
    ("shared-count", "rfms_filtered", {"stat": "mitigation.rfm-filtered"}),
)


def matrix_schemes() -> List[str]:
    """Every scheme with a row, in registry order: each one the registry
    can build from ``hcnt`` alone (the CLI criterion)."""
    return [name for name in SCHEMES.names()
            if name not in _SKIP and SCHEMES.accepts(name, "hcnt")]


def spec(fidelity: str = "smoke",
         hcnt: int = DEFAULT_HCNT) -> ExperimentSpec:
    """The comparison as data: three points per scheme row."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    workload = workload_spec("mix-blend", threads=fc.threads)
    rows = {_DISPLAY.get(name, name): scheme_spec(
                name, **SCHEMES.buildable_params(name, {"hcnt": hcnt}))
            for name in matrix_schemes()}
    rows["SHADOW+filter"] = scheme_spec("filtered", inner="shadow",
                                        hcnt=hcnt)
    points = [PointSpec(metric, ("schemes", label, key), workload=workload,
                        scheme=scheme, sim=sim, params=params)
              for label, scheme in rows.items()
              for metric, key, params in _COLUMNS]
    return ExperimentSpec("extended", fidelity, points,
                          labels={"hcnt": "scheme.hcnt"})


def run(fidelity: str = "smoke", engine: Optional[Engine] = None,
        hcnt: int = DEFAULT_HCNT) -> Dict:
    """Run the all-schemes comparison; returns the result dict."""
    return run_spec(spec(fidelity, hcnt), engine=engine)


def render(results: Dict) -> str:
    """The comparison as one row per scheme."""
    table = [[name, vals["relative_performance"], vals["rfms"],
              vals["rfms_filtered"]]
             for name, vals in results["schemes"].items()]
    return format_table(
        ["scheme", "rel. perf", "RFMs", "RFMs filtered"], table,
        title=f"Extended comparison on mix-blend "
              f"(Hcnt={results['hcnt']}, {results['fidelity']})")
