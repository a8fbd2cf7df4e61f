"""Observability and fault injection are passive: the whole run is equal.

``test_obs_golden`` and ``test_injector_golden`` pin the command stream,
its event count and the cycle counts.  This test compares the complete
:class:`~repro.sim.system.SystemResult` -- bank statistics, refreshes,
RFMs and completed reads included -- of three runs of every golden
scenario: plain, with observability fully on, and with a fault injector
attached as the controller's observer.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.obs import Observability

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_passivity", _GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()


@pytest.mark.parametrize("scheme", GEN.SCHEMES)
def test_obs_and_injector_leave_the_run_unchanged(scheme):
    plain, plain_stream, _ = GEN.run_captured(GEN.build_system(scheme)[0])

    obs = Observability.in_memory(sample_interval=1000)
    observed, observed_stream, _ = GEN.run_captured(
        GEN.build_system(scheme, obs=obs)[0])
    obs.close()

    injected, injected_stream, _, report = GEN.injector_run(scheme)

    assert observed == plain, f"{scheme}: observability changed the run"
    assert injected == plain, f"{scheme}: the injector changed the run"
    assert observed_stream == plain_stream == injected_stream
    # Neither leg is vacuous: obs recorded events, the injector flipped.
    assert obs.sink.events_written > 1000
    assert report["counts"]["bits_injected"] > 0
