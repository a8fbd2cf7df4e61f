"""The declarative spec layer: round-trips, hashing, registries.

Property-based guarantees (hypothesis): every spec type satisfies
``from_dict(to_dict(s)) == s`` -- including through an actual JSON
encode/decode -- and its canonical digest is a stable identity
independent of parameter ordering.  Plus the registry error contract
(did-you-mean suggestions listing the registered keys) and the
``shadow-trcd`` seed-plumbing regression.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factories import make_shadow, make_shadow_with_trcd
from repro.dram.device import DramGeometry
from repro.dram.timing import DDR4_2666
from repro.experiments.configs import fidelity_config
from repro.sim.system import SystemConfig
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    PointSpec,
    SchemeSpec,
    SimSpec,
    TimingSpec,
    WorkloadSpec,
    scheme_spec,
    workload_spec,
)
from repro.spec.registry import (
    SCHEMES,
    TIMINGS,
    WORKLOADS,
    Registry,
    UnknownNameError,
)

# -- strategies --------------------------------------------------------------------

KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
               max_size=10)
SCALARS = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=20),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(KEYS, SCALARS, max_size=3),
)
PARAM_BAGS = st.dictionaries(KEYS, VALUES, max_size=5)

scheme_specs = st.builds(
    SchemeSpec, st.sampled_from(sorted(SCHEMES.names())), PARAM_BAGS)
workload_specs = st.builds(
    WorkloadSpec, st.sampled_from(sorted(WORKLOADS.names())), PARAM_BAGS)
timing_specs = st.builds(
    TimingSpec, st.sampled_from(sorted(TIMINGS.names())), PARAM_BAGS)
sim_specs = st.builds(
    SimSpec,
    timing=timing_specs,
    requests=st.integers(1, 10**6),
    seed=st.integers(0, 2**31),
)
point_specs = st.builds(
    PointSpec,
    metric=KEYS,
    group=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                   max_size=3).map(tuple),
    workload=st.none() | workload_specs,
    scheme=st.none() | scheme_specs,
    sim=st.none() | sim_specs,
    params=PARAM_BAGS,
)
experiment_specs = st.builds(
    ExperimentSpec,
    name=KEYS,
    fidelity=st.sampled_from(["smoke", "full"]),
    points=st.lists(point_specs, max_size=4).map(tuple),
    labels=st.dictionaries(
        KEYS, st.sampled_from(["scheme.hcnt", "workload.app",
                               "params.seed", ["scheme.radius"]]),
        max_size=3),
)


def roundtrip(spec):
    """from_dict(to_dict(s)) == s, also through real JSON text."""
    cls = type(spec)
    assert cls.from_dict(spec.to_dict()) == spec
    rehydrated = cls.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rehydrated == spec
    assert rehydrated.digest() == spec.digest()


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(scheme_specs)
    def test_scheme_spec(self, spec):
        roundtrip(spec)

    @settings(max_examples=50, deadline=None)
    @given(workload_specs)
    def test_workload_spec(self, spec):
        roundtrip(spec)

    @settings(max_examples=50, deadline=None)
    @given(timing_specs)
    def test_timing_spec(self, spec):
        roundtrip(spec)

    @settings(max_examples=50, deadline=None)
    @given(sim_specs)
    def test_sim_spec(self, spec):
        roundtrip(spec)

    @settings(max_examples=30, deadline=None)
    @given(point_specs)
    def test_point_spec(self, spec):
        roundtrip(spec)

    @settings(max_examples=20, deadline=None)
    @given(experiment_specs)
    def test_experiment_spec(self, spec):
        roundtrip(spec)


class TestCanonicalHash:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(SCHEMES.names())), PARAM_BAGS)
    def test_param_order_is_irrelevant(self, kind, params):
        forward = SchemeSpec(kind, params)
        reversed_bag = dict(reversed(list(params.items())))
        backward = SchemeSpec(kind, reversed_bag)
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert forward.digest() == backward.digest()

    def test_digest_is_data_defined(self):
        # A pinned digest: changing the canonical encoding (and thereby
        # every on-disk cache key derived from spec hashes) must be a
        # deliberate, versioned decision -- not an accident.
        spec = scheme_spec("shadow", hcnt=4096)
        assert spec.to_dict() == {"kind": "shadow",
                                  "params": {"hcnt": 4096}}
        assert spec.canonical_json() == \
            '{"kind":"shadow","params":{"hcnt":4096}}'

    def test_payload_matches_to_dict(self):
        # The engine's cache keys are built from ``payload()``; it must
        # stay the exact dict shape ``to_dict`` produces.
        spec = scheme_spec("parfm", hcnt=2048, radius=2)
        assert spec.payload() == spec.to_dict()


class TestRegistryErrors:
    def test_scheme_did_you_mean(self):
        with pytest.raises(UnknownNameError, match=r"did you mean 'shadow'"):
            SCHEMES.resolve("shdow")

    def test_unknown_lists_registered_keys(self):
        with pytest.raises(UnknownNameError, match="registered"):
            WORKLOADS.resolve("nonesuch")

    def test_spec_construction_validates_kind(self):
        with pytest.raises(UnknownNameError):
            SchemeSpec("not-a-scheme")
        with pytest.raises(UnknownNameError):
            WorkloadSpec("not-a-workload")
        with pytest.raises(UnknownNameError):
            TimingSpec("DDR9-0000")

    def test_registries_are_populated(self):
        assert {"none", "shadow", "shadow-trcd", "parfm", "drr",
                "blockhammer", "rrs"} <= set(SCHEMES.names())
        assert {"spec", "mix-high", "mix-blend",
                "mix-random"} <= set(WORKLOADS.names())
        assert {"DDR4-2666", "DDR5-4800"} <= set(TIMINGS.names())

    def test_reregistration_with_different_factory_fails(self):
        with pytest.raises(ValueError, match="already registered"):
            SCHEMES.register("shadow", lambda: None)

    def test_registered_name_resolves_without_provider_import(self):
        # Providers load only for a name not yet registered: looking up
        # a driver-defined metric must not import the analytic models.
        registry = Registry("thing", providers=("repro.no_such_module",))
        factory = registry.register("here", lambda: 1)
        assert registry.resolve("here") is factory
        with pytest.raises(ModuleNotFoundError):
            registry.resolve("elsewhere")


class TestBuild:
    def test_scheme_spec_builds_fresh_instances(self):
        spec = scheme_spec("shadow", hcnt=4096)
        assert spec.build() is not spec.build()

    def test_workload_spec_builds_profiles(self):
        profiles = workload_spec("mix-high", threads=4).build()
        assert len(profiles) == 4

    def test_timing_spec_overrides(self):
        timing = TimingSpec("DDR4-2666", {"tRCD": 23}).build()
        assert timing.tRCD == 23

    def test_sim_spec_matches_fidelity_system_config(self):
        # Cache-key compatibility: the declarative path must produce the
        # exact SystemConfig the pre-spec drivers built: the paper's
        # geometry and every other field at its default.
        fc = fidelity_config("smoke")
        for requests in (fc.requests_per_thread, fc.single_thread_requests):
            assert (fc.sim_spec(requests=requests).to_system_config()
                    == SystemConfig(geometry=DramGeometry(),
                                    timing=DDR4_2666,
                                    requests_per_thread=requests, seed=3))

    def test_sim_spec_rejects_unknown_keys(self):
        # An older JSON that set mlp must not silently run at the default.
        payload = SimSpec().to_dict()
        payload.update(mlp=1, max_cycles=10)
        with pytest.raises(ValueError, match=r"\['max_cycles', 'mlp'\]"):
            SimSpec.from_dict(payload)


def _renamed(payload, key, spelt):
    """A copy of ``payload`` with ``key`` misspelt as ``spelt``."""
    payload = dict(payload)
    payload[spelt] = payload.pop(key)
    return payload


def _redteam_dump():
    from repro.experiments import redteam
    return json.loads(json.dumps(redteam.spec("smoke").to_dict()))


#: (spec class, payload, the key it must refuse by name); SimSpec's
#: case is ``TestBuild.test_sim_spec_rejects_unknown_keys``.
UNKNOWN_KEYS = [
    # A misspelt ``points`` would load as an empty grid and save a
    # result with no cells over the committed one.
    (ExperimentSpec, _renamed(_redteam_dump(), "points", "point"), "point"),
    # A dump from before labels replaced meta.
    (ExperimentSpec, _renamed(_redteam_dump(), "labels", "meta"), "meta"),
    # A misspelt ``scheme`` would run the point with no mitigation.
    (PointSpec, _renamed(_redteam_dump()["points"][0], "scheme", "schem"),
     "schem"),
    (SchemeSpec, {"kind": "shadow", "param": {"hcnt": 512}}, "param"),
    (WorkloadSpec, {"kind": "mix-high", "threads": 2}, "threads"),
    (TimingSpec, {"grade": "DDR4-2666", "override": {"tRCD": 23}},
     "override"),
    (FaultSpec, {"hcnt": 512, "polcy": "panic"}, "polcy"),
]


@pytest.mark.parametrize("cls,payload,key", UNKNOWN_KEYS,
                         ids=[f"{c.__name__}-{k}"
                              for c, _, k in UNKNOWN_KEYS])
def test_from_dict_refuses_unknown_keys(cls, payload, key):
    with pytest.raises(ValueError,
                       match=rf"unknown {cls.__name__} keys: \['{key}'\]"):
        cls.from_dict(payload)


class TestShadowTrcdSeed:
    """Regression: ``make_shadow_with_trcd`` used to drop the RNG seed."""

    def test_seed_reaches_config(self):
        shadow = make_shadow_with_trcd(23, hcnt=4096, seed=7)
        assert shadow.config.rng_seed == 7

    def test_matches_make_shadow_seeding(self):
        a = make_shadow(4096, seed=11)
        b = make_shadow_with_trcd(25, hcnt=4096, seed=11)
        assert a.config.rng_seed == b.config.rng_seed == 11

    def test_same_seed_same_config(self):
        a = make_shadow_with_trcd(23, hcnt=4096, seed=5)
        b = make_shadow_with_trcd(23, hcnt=4096, seed=5)
        assert a.config == b.config

    def test_spec_plumbs_seed(self):
        spec = scheme_spec("shadow-trcd", trcd=23, hcnt=4096, seed=9)
        assert spec.build().config.rng_seed == 9
