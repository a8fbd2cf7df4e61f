"""The typed spec vocabulary: every run is constructible from data.

Five frozen dataclasses describe everything the experiment layer can
execute:

* :class:`SchemeSpec`   -- a mitigation: registry kind + parameters;
* :class:`WorkloadSpec` -- a workload: registry kind + parameters,
  resolving to a tuple of :class:`~repro.workloads.trace.WorkloadProfile`;
* :class:`TimingSpec`   -- a JEDEC speed grade by name, with optional
  field overrides;
* :class:`SimSpec`      -- the run-scale knobs of one simulation
  (timing + requests + seed + ...), buildable into a
  :class:`~repro.sim.system.SystemConfig`;
* :class:`ExperimentSpec` -- a whole figure/table: a grid of
  :class:`PointSpec` entries plus the paths its result labels are read
  from, executed by the generic driver (:mod:`repro.experiments.driver`).

All of them round-trip through plain dicts (``from_dict(to_dict(s)) ==
s``), so an experiment -- and every job it expands into -- is a JSON
blob any worker process can rehydrate.  Factories are resolved through
the central registries (:mod:`repro.spec.registry`); no closure or
lambda ever crosses a process-pool boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.spec.base import (
    Params,
    SpecBase,
    freeze,
    freeze_params,
    thaw,
    thaw_params,
)
from repro.spec.registry import FAULT_POLICIES, SCHEMES, TIMINGS, WORKLOADS


@dataclass(frozen=True)
class SchemeSpec(SpecBase):
    """A mitigation named declaratively: registry kind + parameters.

    Hashable, picklable and JSON-able -- the properties a lambda factory
    lacks -- so it can ride in a job across process boundaries and into
    the cache key.
    """

    kind: str
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        SCHEMES.resolve(self.kind)   # raises with did-you-mean if unknown

    def build(self):
        """A fresh mitigation instance (per-run state never shared)."""
        return SCHEMES.build(self.kind, **thaw_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": thaw_params(self.params)}

    #: The cache-key fragment for this scheme (the historical name for
    #: ``to_dict`` -- the engine's job specs are keyed on this shape).
    payload = to_dict


def scheme_spec(kind: str, **params: Any) -> SchemeSpec:
    """Convenience constructor with keyword parameters."""
    return SchemeSpec(kind, freeze_params(params))


@dataclass(frozen=True)
class WorkloadSpec(SpecBase):
    """A workload named declaratively, resolving to profile tuples."""

    kind: str
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        WORKLOADS.resolve(self.kind)

    def build(self) -> tuple:
        """The tuple of :class:`WorkloadProfile` this spec names."""
        return tuple(WORKLOADS.build(self.kind, **thaw_params(self.params)))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": thaw_params(self.params)}


def workload_spec(kind: str, **params: Any) -> WorkloadSpec:
    """Convenience constructor with keyword parameters."""
    return WorkloadSpec(kind, freeze_params(params))


@dataclass(frozen=True)
class TimingSpec(SpecBase):
    """A JEDEC speed grade by registry name, with field overrides."""

    grade: str = "DDR4-2666"
    overrides: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", freeze_params(self.overrides))
        TIMINGS.resolve(self.grade)

    def build(self):
        """The :class:`~repro.dram.timing.TimingParams` this spec names."""
        import dataclasses as _dc
        timing = TIMINGS.build(self.grade)
        if self.overrides:
            timing = _dc.replace(timing, **thaw_params(self.overrides))
        return timing

    def to_dict(self) -> Dict[str, Any]:
        return {"grade": self.grade, "overrides": thaw_params(self.overrides)}


@dataclass(frozen=True)
class SimSpec(SpecBase):
    """Run-scale knobs of one simulation, mirroring ``SystemConfig``.

    The geometry is always the paper's Table IV organisation (128 banks)
    -- see :mod:`repro.experiments.configs` for why it never shrinks --
    so the spec only carries the knobs the experiments actually vary;
    every other ``SystemConfig`` field keeps its default.
    """

    timing: TimingSpec = field(default_factory=TimingSpec)
    requests: int = 2000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ValueError("requests must be positive")

    def to_system_config(self):
        """The equivalent :class:`~repro.sim.system.SystemConfig`."""
        from repro.dram.device import DramGeometry
        from repro.sim.system import SystemConfig
        return SystemConfig(
            geometry=DramGeometry(),
            timing=self.timing.build(),
            requests_per_thread=self.requests,
            seed=self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "timing": self.timing.to_dict(),
            "requests": self.requests,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimSpec":
        return super().from_dict(dict(
            payload, timing=TimingSpec.from_dict(payload.get("timing", {}))))


@dataclass(frozen=True)
class FaultSpec(SpecBase):
    """A fault-injection run named declaratively.

    Describes one :class:`~repro.faults.inject.FaultInjector`: the
    disturbance threshold and blast radius, the SEC-DED code shape, and
    the graceful-degradation policy (validated against the central
    ``FAULT_POLICIES`` registry).  Jobs carrying a ``FaultSpec`` fold it
    into their cache key; jobs without one keep their historical key.
    """

    hcnt: int = 4096
    blast_radius: int = 3
    policy: str = "retire"
    seed: int = 1
    data_bits: int = 64
    check_bits: int = 8
    codewords_per_row: int = 1024
    max_retries: int = 3
    scrub_on_refresh: bool = True
    refresh_hammers_neighbors: bool = False

    def __post_init__(self) -> None:
        if self.hcnt <= 0:
            raise ValueError("hcnt must be positive")
        # A zero radius disturbs no neighbour, so no bit could ever
        # flip and every run would read as secure.
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        FAULT_POLICIES.resolve(self.policy)

    def build(self):
        """A fresh :class:`~repro.faults.inject.FaultInjector`."""
        from repro.faults import build_injector
        return build_injector(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hcnt": self.hcnt,
            "blast_radius": self.blast_radius,
            "policy": self.policy,
            "seed": self.seed,
            "data_bits": self.data_bits,
            "check_bits": self.check_bits,
            "codewords_per_row": self.codewords_per_row,
            "max_retries": self.max_retries,
            "scrub_on_refresh": self.scrub_on_refresh,
            "refresh_hammers_neighbors": self.refresh_hammers_neighbors,
        }


def fault_spec(**params: Any) -> FaultSpec:
    """Convenience constructor mirroring :func:`scheme_spec`."""
    return FaultSpec(**params)


@dataclass(frozen=True)
class PointSpec(SpecBase):
    """One cell of an experiment grid.

    ``metric`` names how the cell's value is computed (a key of the
    driver's metric registry); ``group`` is the output path the value
    lands at -- several points sharing a path are averaged in order
    (e.g. fig8's per-app ratios within a SPEC group).  Simulation
    metrics carry workload/scheme/sim specs; analytic metrics (Table II
    security bounds, the circuit model) carry only ``params``.
    """

    metric: str
    group: Tuple[str, ...]
    workload: Optional[WorkloadSpec] = None
    scheme: Optional[SchemeSpec] = None
    sim: Optional[SimSpec] = None
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "group",
                           tuple(str(g) for g in self.group))
        object.__setattr__(self, "params", freeze_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "group": list(self.group),
            "workload": (self.workload.to_dict()
                         if self.workload is not None else None),
            "scheme": (self.scheme.to_dict()
                       if self.scheme is not None else None),
            "sim": self.sim.to_dict() if self.sim is not None else None,
            "params": thaw_params(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PointSpec":
        specs = {key: spec_cls.from_dict(payload[key])
                 for key, spec_cls in (("workload", WorkloadSpec),
                                       ("scheme", SchemeSpec),
                                       ("sim", SimSpec))
                 if payload.get(key) is not None}
        return super().from_dict(dict(payload, **specs))


@dataclass(frozen=True)
class ExperimentSpec(SpecBase):
    """A whole figure/table as data: a grid of points + result labels.

    ``labels`` maps a result key to the point field it reports, written
    ``"scheme.<key>"``, ``"workload.<key>"`` or ``"params.<key>"``: a
    plain path is a scalar label, a one-element list a swept one.  The
    generic driver interprets the spec; nothing about *how* to run it
    lives here.
    """

    name: str
    fidelity: str = "smoke"
    points: Tuple[PointSpec, ...] = ()
    labels: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "labels", freeze_params(self.labels))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "fidelity": self.fidelity,
            "points": [p.to_dict() for p in self.points],
            "labels": thaw_params(self.labels),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        points = [PointSpec.from_dict(p) for p in payload.get("points", ())]
        return super().from_dict(dict(payload, points=points))


__all__ = [
    "ExperimentSpec",
    "FaultSpec",
    "PointSpec",
    "SchemeSpec",
    "SimSpec",
    "TimingSpec",
    "WorkloadSpec",
    "fault_spec",
    "freeze",
    "scheme_spec",
    "thaw",
    "workload_spec",
]
