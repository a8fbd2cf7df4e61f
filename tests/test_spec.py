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
from repro.experiments.configs import fidelity_config
from repro.spec import (
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    SimSpec,
    TimingSpec,
    WorkloadSpec,
    scheme_spec,
    workload_spec,
)
from repro.spec.registry import SCHEMES, TIMINGS, WORKLOADS, UnknownNameError

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
    mlp=st.integers(1, 64),
    cpu_ghz=st.floats(0.5, 6.0),
    enable_refresh=st.booleans(),
    max_cycles=st.integers(1, 10**12),
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
    meta=PARAM_BAGS,
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
        # exact SystemConfig the pre-spec drivers built.
        fc = fidelity_config("smoke")
        assert (fc.sim_spec().to_system_config()
                == fc.system_config())
        assert (fc.sim_spec(requests=fc.single_thread_requests)
                .to_system_config()
                == fc.system_config(requests=fc.single_thread_requests))


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
