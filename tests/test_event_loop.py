"""``System.run`` vs the reference loop: same events, same order, same stream.

The production single-heap loop (``System.run()``) and the reference
loop (``run_reference`` in ``tests/event_loop_reference.py``, the
simulator's original loop kept as the executable spec) implement one
event-ordering contract (see ``repro/sim/system.py``).  These tests pin
them to each other directly -- same per-bank command stream digest,
same ``SystemResult`` -- across every mitigation class the scheduler
special-cases, with refresh off, and with observability sampling on.
The sparse case and the golden scenarios also assert that the reference
saw *revived* wakes (a superseded channel wake firing because its
channel was re-armed at the same cycle), so the equivalence provably
covers the ordering corner case of DESIGN.md section 13.  The golden
suite separately pins the production loop to the pre-rewrite
recordings; this suite localises a divergence to the loop rather than
the controller.
"""

import heapq
import importlib.util
import types
from pathlib import Path

import pytest

import repro.sim.system as system_module
import tests.event_loop_reference as reference_module
from repro.sim import System, SystemConfig
from repro.workloads.trace import WorkloadProfile
from tests.event_loop_reference import run_reference

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_loops", _GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()

#: Sparse traffic with long idle gaps between requests: the loop spends
#: most of its iterations jumping across REF horizons and re-arming
#: channel wakes at already-armed cycles, which is exactly where wake
#: revival decides same-cycle ordering.
_SPARSE = WorkloadProfile(
    name="loop-sparse", mpki=0.4, row_buffer_locality=0.3,
    write_fraction=0.25, footprint_pages=512)

#: The sparse traffic as loads only: at ``mlp=1`` every issue fills the
#: thread's window, and every load returns long before the next gap ends.
_SPARSE_LOADS = WorkloadProfile(
    name="loop-sparse-loads", mpki=0.4, row_buffer_locality=0.3,
    write_fraction=0.0, footprint_pages=512)

#: Loads only, with gaps (about ten cycles) shorter than a load's
#: latency: at ``mlp=1`` nearly every parked entry is dropped, because
#: it would have popped as a no-op before the load returned.
_DENSE_LOADS = WorkloadProfile(
    name="loop-dense-loads", mpki=20.0, row_buffer_locality=0.3,
    write_fraction=0.0, footprint_pages=512)


def _result_fields(result):
    stats = result.stats
    return {
        "cycles": result.cycles,
        "thread_finish_cycles": list(result.thread_finish_cycles),
        "reads_completed": result.reads_completed,
        "requests_issued": result.requests_issued,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "stats": {name: getattr(stats, name) for name in vars(stats)},
    }


def _run_systems(build):
    """Build two identical systems; run one through ``System.run``, one
    through the reference loop, and assert they agree.  Returns both
    systems, the result and the number of revived wakes the reference
    saw."""
    fast_sys = build()
    ref_sys = build()
    fast_result, fast_digest, fast_events = GEN.run_captured(fast_sys)
    revived = []

    def run(system):
        result, count = run_reference(system)
        revived.append(count)
        return result

    ref_result, ref_digest, ref_events = GEN.run_captured(ref_sys, run=run)
    assert fast_events == ref_events
    assert fast_digest == ref_digest
    assert _result_fields(fast_result) == _result_fields(ref_result)
    return fast_sys, ref_sys, fast_result, revived[0]


def _run_pair(build):
    """:func:`_run_systems`, returning the result and revived wakes."""
    _, _, result, revived = _run_systems(build)
    return result, revived


def _loads_system(profile=_SPARSE_LOADS, obs=None):
    """One thread of ``profile`` at ``mlp=1``, recording the arrival
    cycle of every request it issues in ``system.arrivals``."""
    config = SystemConfig(requests_per_thread=200, seed=5, mlp=1)
    system = System([profile], config=config, obs=obs)
    system.arrivals = []
    enqueue = system.mc.enqueue

    def recording(request):
        system.arrivals.append(request.arrival)
        enqueue(request)
    system.mc.enqueue = recording
    return system


def _assert_parked_entries_returned(system):
    """Nearly every request issued exactly its gap after the previous
    one: the thread did not wait on its window, so the readiness entry
    parked behind the full window was back on the heap when the gap
    ended.  (A load that meets a REF can still return late.)"""
    thread = system.threads[0]
    gaps = [gap for gap, _, _ in thread._ops]
    arrivals = system.arrivals
    assert len(arrivals) == thread.budget
    on_time = sum(arrivals[i] - arrivals[i - 1] == gaps[i]
                  for i in range(1, len(arrivals)))
    assert on_time > 0.9 * len(arrivals)


class TestFastMatchesReference:
    @pytest.mark.parametrize("scheme", GEN.SCHEMES)
    def test_golden_scenarios(self, scheme):
        _, revived = _run_pair(lambda: GEN.build_system(scheme)[0])
        assert revived > 0

    def test_sparse_idle_traffic(self):
        def build():
            config = SystemConfig(requests_per_thread=300, seed=77)
            return System([_SPARSE] * 3, config=config)
        _, revived = _run_pair(build)
        assert revived > 0

    def test_refresh_disabled(self):
        def build():
            config = SystemConfig(requests_per_thread=300, seed=31,
                                  enable_refresh=False)
            return System([_SPARSE, GEN.THREADS[0]], config=config)
        result, _ = _run_pair(build)
        assert result.refreshes == 0

    def test_with_observability_sampling(self):
        from repro.obs import Observability

        def build(obs):
            config = SystemConfig(requests_per_thread=250, seed=19)
            return System([GEN.THREADS[0], _SPARSE], config=config,
                          obs=obs)

        obs_fast = Observability.in_memory(sample_interval=5_000)
        obs_ref = Observability.in_memory(sample_interval=5_000)
        fast = build(obs_fast).run()
        ref, _ = run_reference(build(obs_ref))
        obs_fast.close()
        obs_ref.close()
        assert _result_fields(fast) == _result_fields(ref)
        # A drain never runs ahead past a sample point, so every
        # snapshot is taken at the same cycle from the same state.
        assert obs_fast.snapshots == obs_ref.snapshots


class TestDrainLookAhead:
    """The production loop lets a drain run ahead through its channel's
    own later wakes (DESIGN.md section 13); the reference loop never
    does.  Each case pins the two together where a bound matters."""

    def test_posted_write_only_thread(self):
        # The thread finishes at its last issue, so look-ahead switches
        # off while the posted writes are still queued.  Dense writes and
        # a short REF interval on a two-rank channel put an idle rank's
        # REF just after the last write: a drain still running ahead
        # would issue it and end the run late.
        from repro.dram.device import DramGeometry
        from repro.dram.subarray import SubarrayLayout
        from repro.dram.timing import DDR4_2666

        writes = WorkloadProfile(
            name="loop-writes", mpki=80.0, row_buffer_locality=0.1,
            write_fraction=1.0, footprint_pages=256)
        geometry = DramGeometry(
            channels=1, ranks_per_channel=2, banks_per_rank=4,
            layout=SubarrayLayout(subarrays_per_bank=4,
                                  rows_per_subarray=64),
            columns_per_row=64)

        def build():
            config = SystemConfig(
                geometry=geometry, requests_per_thread=150, seed=1,
                timing=DDR4_2666.with_refresh_interval(1000))
            return System([writes], config=config)
        # ``_run_systems`` asserts equal results, ``cycles`` included.
        fast_sys, _, result, _ = _run_systems(build)
        assert result.reads_completed == 0
        assert fast_sys.mc.lookaheads > 0

    def test_hammer_thread_at_mlp_one(self):
        from repro.workloads.hammer import HammerProfile

        def build():
            config = SystemConfig(requests_per_thread=400, seed=3, mlp=1)
            return System([HammerProfile()], config=config)
        fast_sys, ref_sys, _, _ = _run_systems(build)
        assert fast_sys.mc.lookaheads > 0
        assert ref_sys.mc.lookaheads == 0
        assert fast_sys.mc.drains < ref_sys.mc.drains
        # The full window's readiness entry is parked, not pushed, so it
        # no longer stops the drain armed by each read's arrival one
        # cycle short of its winner.
        assert fast_sys.mc.empty_drains < 0.02 * fast_sys.mc.drains

    def test_sparse_thread_at_mlp_one(self):
        # Each issue fills the one-deep window, so its readiness entry is
        # parked; almost every load returns before the next gap ends, so
        # its completion must push the parked entry back with its own
        # ticket.
        fast_sys, _, _, _ = _run_systems(_loads_system)
        _assert_parked_entries_returned(fast_sys)

    @pytest.mark.parametrize("profile", [_SPARSE_LOADS, _DENSE_LOADS],
                             ids=["sparse", "dense"])
    def test_thread_at_mlp_one_with_sampling(self, profile):
        # A readiness entry at or past the next sample point is pushed,
        # not parked.  Dropped (the dense case), it would move that
        # sample to the next event, a later cycle.
        from repro.obs import Observability

        obs_fast = Observability.in_memory(sample_interval=500)
        obs_ref = Observability.in_memory(sample_interval=500)
        fast = _loads_system(profile, obs_fast).run()
        ref, _ = run_reference(_loads_system(profile, obs_ref))
        obs_fast.close()
        obs_ref.close()
        assert _result_fields(fast) == _result_fields(ref)
        assert len(obs_fast.snapshots) >= 10
        assert obs_fast.snapshots == obs_ref.snapshots

    def test_two_channels_woken_at_one_cycle(self):
        def build():
            config = SystemConfig(requests_per_thread=200, seed=23)
            return System([_SPARSE] * 2, config=config)
        woken = {}
        system = build()
        drain = system.mc.drain

        def recording(channel, until, limit=-1):
            woken.setdefault(until, set()).add(channel)
            return drain(channel, until, limit)
        system.mc.drain = recording
        run_reference(system)
        assert any(len(channels) > 1 for channels in woken.values())
        _run_systems(build)


class TestFoldedReadiness:
    """Deep load windows: a thread whose read returns at a cycle where it
    can already issue gets a second readiness entry for that cycle, and
    each entry that pops as a no-op re-pushes itself, so the reference
    loop carries several entries per thread.  The production loop pops
    a run of them as one (DESIGN.md section 13)."""

    @pytest.mark.parametrize("sample_interval", [0, 200],
                             ids=["unsampled", "sampled"])
    def test_dense_threads_with_deep_windows(self, sample_interval,
                                             monkeypatch):
        from repro.obs import Observability

        pops = {0: 0, "thread": 0}  # readiness pops of each loop

        def counting_pop(heap):
            entry = heapq.heappop(heap)
            if entry[2] in pops:
                pops[entry[2]] += 1
            return entry
        counting = types.SimpleNamespace(heappush=heapq.heappush,
                                         heappop=counting_pop)
        monkeypatch.setattr(system_module, "heapq", counting)
        monkeypatch.setattr(reference_module, "heapq", counting)

        for mlp in (4, 16):
            def build():
                config = SystemConfig(requests_per_thread=200, seed=11,
                                      mlp=mlp)
                obs = (Observability.in_memory(
                    sample_interval=sample_interval)
                    if sample_interval else None)
                return System([_DENSE_LOADS] * 3, config=config, obs=obs)
            fast_sys, ref_sys, _, _ = _run_systems(build)
            if sample_interval:
                fast_sys.obs.close()
                ref_sys.obs.close()
                assert len(fast_sys.obs.snapshots) >= 10
                assert fast_sys.obs.snapshots == ref_sys.obs.snapshots
        assert pops[0] < 0.5 * pops["thread"]


class TestDeterminism:
    def test_fast_loop_is_deterministic(self):
        def build():
            config = SystemConfig(requests_per_thread=300, seed=77)
            return System([_SPARSE] * 3, config=config)
        _, digest_a, events_a = GEN.run_captured(build())
        _, digest_b, events_b = GEN.run_captured(build())
        assert events_a == events_b
        assert digest_a == digest_b

    def test_loops_share_final_cycle(self):
        system_fast, _ = GEN.build_system("none")
        system_ref, _ = GEN.build_system("none")
        fast = system_fast.run()
        ref, _ = run_reference(system_ref)
        assert fast.cycles == ref.cycles
