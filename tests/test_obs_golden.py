"""Observability must observe, not perturb (satellite S3).

Replays the golden scheduler scenarios with observability *fully*
enabled -- metric registry, in-memory trace sink, periodic snapshot
sampler -- and asserts the per-bank command stream is byte-identical to
the committed golden of the uninstrumented run.  Any instrumentation
that advances timing state, reorders candidates, or perturbs an RNG
stream changes the sha256 and fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import Observability

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_obs", _GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
GOLDEN = json.loads(GEN.GOLDEN_PATH.read_text(encoding="utf-8"))


def _build_system(scheme: str, obs):
    return GEN.build_system(scheme, obs=obs)[0]


@pytest.mark.parametrize("scheme", GEN.SCHEMES)
def test_command_stream_identical_with_observability_on(scheme):
    obs = Observability.in_memory(sample_interval=1000)
    system = _build_system(scheme, obs)
    result, digest, n_events = GEN.run_captured(system)
    obs.close()
    expected = GOLDEN[scheme]
    assert digest == expected["command_stream_sha256"], (
        f"{scheme}: observability perturbed the command stream")
    assert n_events == expected["command_stream_events"]
    assert result.cycles == expected["cycles"]
    assert list(result.thread_finish_cycles) == \
        expected["thread_finish_cycles"]
    # And the run actually produced observability output (the test
    # would be vacuous with a dead hub).
    assert obs.summary is not None
    assert obs.snapshots
    assert obs.sink.events_written > 1000


@pytest.mark.parametrize("scheme", ("none", "shadow"))
def test_command_stream_identical_with_observability_off(scheme):
    # The off path (obs=None) must equally match; this guards the
    # refactors made to the scheduler's counting code itself.
    system, _mitigation = GEN.build_system(scheme)
    _result, digest, _n = GEN.run_captured(system)
    assert digest == GOLDEN[scheme]["command_stream_sha256"]


def test_summary_consistent_with_golden_stats():
    obs = Observability(metrics=True)
    system = _build_system("shadow", obs)
    result = system.run()
    expected = GOLDEN["shadow"]
    assert result.cycles == expected["cycles"]
    s = obs.summary
    assert s["acts"] == expected["stats"]["acts"]
    assert s["row_hits"] == expected["stats"]["row_hits"]
    assert s["rfms"] == expected["stats"]["rfms"]
    cache = s["candidate_cache"]
    assert cache["evals"] == cache["hits"] + cache["recomputes"] > 0
    assert s["raa_crossings"] > 0
    assert s["raa"]["rfms_issued"] == expected["rfms"]
