"""Experiment drivers: one module per paper table/figure.

Every module exposes ``spec(fidelity)`` returning the figure as a
declarative :class:`~repro.spec.ExperimentSpec`, ``run(fidelity,
engine=None)`` executing it through the generic driver
(:func:`run_spec`) into a plain dict of the rows/series the paper
reports, and ``render(results)`` formatting that dict as the printed
table.  ``shadow-repro experiment <name> [smoke|full]`` runs, renders
and saves any of them (``redteam`` builds its job grid directly rather
than through a spec).

``fidelity`` selects the run scale:

* ``"smoke"`` -- minutes-scale runs used by the benchmark suite; same
  mechanisms, trimmed workload sets and request budgets.
* ``"full"`` -- the paper-scale configuration (all applications, 14-16
  threads, larger budgets); used to produce EXPERIMENTS.md.
"""

from repro.experiments.configs import FidelityConfig, fidelity_config
from repro.experiments.driver import METRICS, run_spec
from repro.experiments.engine import (
    Engine,
    EngineStats,
    Job,
    JobResult,
    SchemeSpec,
    scheme_spec,
)

__all__ = [
    "Engine",
    "EngineStats",
    "FidelityConfig",
    "Job",
    "JobResult",
    "METRICS",
    "SchemeSpec",
    "fidelity_config",
    "run_spec",
    "scheme_spec",
]
