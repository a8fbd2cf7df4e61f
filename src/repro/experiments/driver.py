"""The generic, spec-interpreting experiment driver.

Every figure and table is *data*: an
:class:`~repro.spec.ExperimentSpec` -- a grid of
:class:`~repro.spec.PointSpec` cells, each naming a **metric** (how the
cell's value is computed), an output **group** (where the value lands in
the result dict) and, for simulation metrics, workload/scheme/sim specs.
This module interprets that data:

1. each point's metric *plans* the engine jobs it needs (none, for
   analytic metrics such as the Table II security bounds);
2. the union of all jobs runs once through the
   :class:`~repro.experiments.engine.Engine` (deduplicated, cached,
   parallel);
3. each metric assembles its point's value from the results, and values
   are placed at their group paths -- several points sharing a path are
   averaged in insertion order (e.g. Figure 8's per-app ratios within a
   SPEC group, Figure 11's mix-random variants).

Metrics live in a registry of their own (:data:`METRICS`): the
simulation ratios and run counts are defined here, the closed-form
analytic metrics register from the modules that own their models
(``table2``, ``table3``, ``ablations``).  Because specs are plain data,
``run_spec`` accepts a spec rehydrated from JSON just as happily as one
built in code -- ``shadow-repro run --spec grid.json`` runs a
serialized experiment end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.engine import (
    BASELINE,
    Engine,
    Job,
    JobResult,
    alone_job,
    shared_job,
)
from repro.sim.metrics import relative_weighted_speedup
from repro.spec import ExperimentSpec
from repro.spec.base import thaw_params
from repro.spec.registry import Registry

#: How a point's value is computed.  The analytic metrics register from
#: the modules that own the underlying models (imported lazily on first
#: lookup, like every registry provider).
METRICS = Registry("metric", providers=(
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.experiments.ablations",
))


@dataclass
class ResolvedPoint:
    """One grid cell with its specs resolved to simulator objects."""

    point: Any                       # the PointSpec
    profiles: Optional[Tuple]        # WorkloadProfile tuple, if any
    config: Optional[Any]            # SystemConfig, if any
    params: Dict[str, Any]           # thawed point parameters


class AnalyticMetric:
    """Base for closed-form metrics: no jobs, value from params alone."""

    def plan(self, rp: ResolvedPoint) -> Dict[str, Any]:
        return {}

    def value(self, rp: ResolvedPoint, plan: Dict[str, Any],
              results: Dict[Job, JobResult]) -> Any:
        raise NotImplementedError


# -- simulation metrics ------------------------------------------------------------

class _WsRelative:
    """WS(scheme)/WS(baseline) of a multi-programmed mix (Figs 8-11).

    Both weighted speedups use the *baseline system's* alone times as
    the IPC_alone reference (the conventional normalisation); using each
    scheme's own alone times would let a scheme that slows solo
    execution paradoxically raise its ratio above 1.
    """

    def plan(self, rp):
        return {
            "alone": tuple(alone_job(p, BASELINE, rp.config)
                           for p in rp.profiles),
            "scheme": shared_job(rp.profiles, rp.point.scheme, rp.config),
            "base": shared_job(rp.profiles, BASELINE, rp.config),
        }

    def value(self, rp, plan, results):
        alone_cycles = [results[j].thread_finish_cycles[0]
                        for j in plan["alone"]]
        return relative_weighted_speedup(
            alone_cycles,
            results[plan["scheme"]].thread_finish_cycles,
            results[plan["base"]].thread_finish_cycles)


class _StRelative:
    """Reciprocal execution time of an alone run, scheme vs baseline."""

    def plan(self, rp):
        (profile,) = rp.profiles
        return {"scheme": alone_job(profile, rp.point.scheme, rp.config),
                "base": alone_job(profile, BASELINE, rp.config)}

    def value(self, rp, plan, results):
        return (results[plan["base"]].thread_finish_cycles[0]
                / results[plan["scheme"]].thread_finish_cycles[0])


class _MtRelative:
    """Reciprocal execution time (slowest thread) of a homogeneous
    shared run, scheme vs baseline (Fig. 8's GAPBS/NPB columns)."""

    def plan(self, rp):
        return {"scheme": shared_job(rp.profiles, rp.point.scheme,
                                     rp.config),
                "base": shared_job(rp.profiles, BASELINE, rp.config)}

    def value(self, rp, plan, results):
        return (max(results[plan["base"]].thread_finish_cycles)
                / max(results[plan["scheme"]].thread_finish_cycles))


def command_counts(result: JobResult):
    """The power model's view of one run's command stream."""
    from repro.analysis.power import CommandCounts
    return CommandCounts(
        acts=result.acts, reads=result.reads,
        writes=result.writes, refreshes=result.refreshes,
        rfms=result.rfms, elapsed_cycles=max(1, result.cycles))


class _RelativePower:
    """System power relative to baseline via the IDD model (Fig. 12)."""

    def plan(self, rp):
        return {"scheme": shared_job(rp.profiles, rp.point.scheme,
                                     rp.config),
                "base": shared_job(rp.profiles, BASELINE, rp.config)}

    def value(self, rp, plan, results):
        from repro.analysis.power import SystemPowerModel
        power = SystemPowerModel(
            cpu_tdp_w=rp.params.get("cpu_tdp_w", 165.0),
            devices=rp.params.get("devices", 32),
            timing=rp.config.timing)
        return power.relative_power(
            command_counts(results[plan["scheme"]]),
            command_counts(results[plan["base"]]),
            shadow=rp.params.get("shadow", True))


class _RfmPerRef:
    """RFM commands normalised to refreshes in one run (Fig. 12)."""

    def plan(self, rp):
        return {"scheme": shared_job(rp.profiles, rp.point.scheme,
                                     rp.config)}

    def value(self, rp, plan, results):
        counts = command_counts(results[plan["scheme"]])
        return counts.rfms / max(1, counts.refreshes)


class _SharedCount:
    """One count from the shared scheme run: a :class:`JobResult` field
    (``stat="rfms"``) or, for a dotted name, an observability counter
    (``stat="mitigation.rfm-filtered"``; 0 if it never fired)."""

    def plan(self, rp):
        return {"scheme": shared_job(rp.profiles, rp.point.scheme,
                                     rp.config)}

    def value(self, rp, plan, results):
        result = results[plan["scheme"]]
        stat = rp.params["stat"]
        if "." in stat:
            return result.metrics["metrics"].get(stat, 0)
        return getattr(result, stat)


METRICS.register("ws-relative", _WsRelative())
METRICS.register("st-relative", _StRelative())
METRICS.register("mt-relative", _MtRelative())
METRICS.register("relative-power", _RelativePower())
METRICS.register("rfm-per-ref", _RfmPerRef())
METRICS.register("shared-count", _SharedCount())


# -- the interpreter ---------------------------------------------------------------

def _plan_jobs(plan: Dict[str, Any]) -> List[Job]:
    jobs: List[Job] = []
    for entry in plan.values():
        if isinstance(entry, Job):
            jobs.append(entry)
        else:
            jobs.extend(entry)
    return jobs


def _insert(output: Dict[str, Any], path: Tuple[str, ...],
            value: Any) -> None:
    node = output
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value


def run_spec(spec: ExperimentSpec,
             engine: Optional[Engine] = None) -> Dict:
    """Interpret one experiment spec; returns the figure's result dict.

    The result starts from ``{"experiment": name, "fidelity": fidelity}``
    plus the spec's ``meta`` entries, then every point's value lands at
    its group path.  Points sharing a path are averaged in insertion
    order, reproducing the per-group means of the pre-spec drivers
    float-for-float.

    With a keep-going engine, jobs that failed permanently are missing
    from the result dict: points that depend on them are skipped (they
    simply don't contribute to their group's average) and the output
    gains a ``"failures"`` section -- the engine's failure report plus
    the skipped group paths -- so a driver gets partial results and a
    structured report instead of a mid-sweep traceback.
    """
    engine = engine or Engine()

    # Resolve specs to simulator objects once per distinct spec: the
    # grids reuse a handful of workloads/configs across hundreds of
    # points, and profile construction is not free.
    profile_cache: Dict[Any, Tuple] = {}
    config_cache: Dict[Any, Any] = {}
    resolved: List[ResolvedPoint] = []
    plans: List[Dict[str, Any]] = []
    all_jobs: List[Job] = []
    for point in spec.points:
        metric = METRICS.resolve(point.metric)
        profiles = None
        if point.workload is not None:
            profiles = profile_cache.get(point.workload)
            if profiles is None:
                profiles = point.workload.build()
                profile_cache[point.workload] = profiles
        config = None
        if point.sim is not None:
            config = config_cache.get(point.sim)
            if config is None:
                config = point.sim.to_system_config()
                config_cache[point.sim] = config
        rp = ResolvedPoint(point, profiles, config,
                           thaw_params(point.params))
        plan = metric.plan(rp)
        all_jobs.extend(_plan_jobs(plan))
        resolved.append(rp)
        plans.append(plan)

    results = engine.run(all_jobs) if all_jobs else {}

    output: Dict[str, Any] = {"experiment": spec.name,
                              "fidelity": spec.fidelity}
    output.update(thaw_params(spec.meta))
    groups: Dict[Tuple[str, ...], List[Any]] = {}
    order: List[Tuple[str, ...]] = []
    skipped: List[str] = []
    for rp, plan in zip(resolved, plans):
        metric = METRICS.resolve(rp.point.metric)
        try:
            value = metric.value(rp, plan, results)
        except KeyError:
            # A job this point needs failed permanently (keep-going
            # engines return partial results); anything else is a bug
            # and must not be swallowed.
            if not engine.failures:
                raise
            skipped.append("/".join(rp.point.group))
            continue
        path = rp.point.group
        if path not in groups:
            groups[path] = []
            order.append(path)
        groups[path].append(value)
    for path in order:
        values = groups[path]
        cell = values[0] if len(values) == 1 else sum(values) / len(values)
        _insert(output, path, cell)
    if engine.failures:
        output["failures"] = {
            "jobs": engine.failure_report(),
            "skipped_points": skipped,
        }
    return output


__all__ = [
    "AnalyticMetric",
    "METRICS",
    "ResolvedPoint",
    "command_counts",
    "run_spec",
]
