"""The fault injector is passive, and its outcome is pinned.

Replays every golden scheduler scenario with a
:class:`~repro.faults.inject.FaultInjector` attached as the controller's
observer and asserts two things:

* the per-bank command stream, its event count and the cycle count equal
  the committed golden of the run without an injector (an observer that
  advanced timing or perturbed an RNG stream would change them);
* the injector's end-of-run report equals the one recorded in
  ``tests/golden/injector_golden.json``, so every ACT, mitigation
  outcome and REF the controller reports reaches the fault model the
  same way.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_injector", _GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
GOLDEN = json.loads(GEN.GOLDEN_PATH.read_text(encoding="utf-8"))
INJECTED = json.loads(GEN.INJECTOR_GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scheme", GEN.SCHEMES)
def test_injector_run_matches_golden(scheme):
    result, digest, n_events, report = GEN.injector_run(scheme)
    expected = GOLDEN[scheme]
    assert digest == expected["command_stream_sha256"], (
        f"{scheme}: the fault injector perturbed the command stream")
    assert n_events == expected["command_stream_events"]
    assert result.cycles == expected["cycles"]
    pinned = INJECTED[scheme]
    counts = report["counts"]
    assert counts["bits_injected"] == pinned["bits_injected"]
    assert counts["scrub_corrected"] == pinned["scrub_corrected"]
    assert report["rows_flipped"] == pinned["rows_flipped"]
    assert GEN.report_digest(report) == pinned["report_sha256"]


def test_injector_golden_covers_all_schemes():
    assert set(INJECTED) == set(GEN.SCHEMES)


def test_bits_flip_in_every_scenario():
    # A scenario with no flip would pin an empty report: the injector's
    # hooks could then drift without the digest noticing.
    for scheme in GEN.SCHEMES:
        assert INJECTED[scheme]["bits_injected"] > 0, scheme


def test_refresh_scenarios_scrub():
    # The REF sweep reaches the injector: resident errors get scrubbed.
    for scheme in GEN.SCHEMES:
        if scheme.endswith("-refresh"):
            assert INJECTED[scheme]["scrub_corrected"] > 0, scheme
