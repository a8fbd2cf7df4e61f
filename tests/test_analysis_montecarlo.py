"""Monte Carlo adversarial simulation against the real SHADOW mechanism.

Uses scaled-down subarrays and thresholds so empirical flip rates are
measurable; the assertions check directional agreement with the
Appendix XI analysis (SHADOW protects; disabling its pieces weakens it).
SHADOW runs as the :class:`~repro.core.shadow.Shadow` mitigation through
:func:`simulate_defense`; "no shuffle" is the unprotected bank
(:class:`~repro.mitigations.none.NoMitigation`), whose identity mapping
is the one SHADOW starts from.
"""

import pytest

from repro.analysis.montecarlo import flip_rate, simulate_defense
from repro.core import Shadow, ShadowConfig
from repro.dram.device import BankAddress
from repro.dram.subarray import SubarrayLayout
from repro.mitigations.none import NoMitigation
from repro.rowhammer.adversary import (
    ScenarioIAttacker,
    ScenarioIIAttacker,
)
from repro.utils.rng import SystemRng

LAYOUT = SubarrayLayout(subarrays_per_bank=2, rows_per_subarray=32)


def _shadow(raaimt, seed=1, incremental_refresh=True):
    return Shadow(ShadowConfig(raaimt=raaimt, rng_kind="system",
                               rng_seed=seed,
                               incremental_refresh=incremental_refresh))


def _shadows(raaimt, incremental_refresh=True):
    """A per-trial SHADOW factory for :func:`flip_rate`."""
    return lambda seed: _shadow(raaimt, seed, incremental_refresh)


def _unprotected(seed):
    return NoMitigation()


class _FixedRowAttacker:
    """Hammers one fixed PA row forever (no adaptation)."""

    def __init__(self, row):
        self.row = row

    def interval_rows(self, interval, acts):
        return [self.row] * acts


class TestSimulateAttack:
    def test_no_shuffle_fixed_row_flips_quickly(self):
        result = simulate_defense(
            _FixedRowAttacker(10), LAYOUT, NoMitigation(), hcnt=64,
            intervals=50, acts_per_interval=16)
        assert result.flipped
        assert result.first_flip_interval is not None

    def test_shadow_stops_fixed_row_attacker(self):
        """A non-adaptive single-row attacker is SHADOW's best case:
        the aggressor is in the history every interval, so it is
        shuffled every RFM and never accumulates H_cnt.

        Parameters are chosen so the Appendix XI scenario-I bound is
        tiny at this scale (M1 = hcnt/raaimt = 16 hits needed within a
        33-interval incremental window at p = 3.5/32)."""
        result = simulate_defense(
            _FixedRowAttacker(10), LAYOUT, _shadow(4), hcnt=64,
            intervals=400)
        assert not result.flipped

    def test_result_fields(self):
        result = simulate_defense(
            _FixedRowAttacker(3), LAYOUT, _shadow(8), hcnt=1000,
            intervals=10)
        assert result.intervals_run == 10
        assert result.total_acts == 80
        assert result.max_disturbance >= 0
        with pytest.raises(ValueError):
            simulate_defense(_FixedRowAttacker(3), LAYOUT, _shadow(8),
                             hcnt=10, intervals=0)

    def test_remapping_rows_are_checked_every_interval(self):
        """A remapping row corrupted mid-campaign stops the campaign at
        the end of that interval.  The corrupted row belongs to a
        subarray the attacker never touches, so only the per-interval
        invariant check can notice it."""
        shadow = _shadow(8)

        class Corrupter(_FixedRowAttacker):
            def interval_rows(self, interval, acts):
                if interval == 3:
                    bank = BankAddress(0, 0, 0)   # the driver's one bank
                    remap = shadow.controller(bank).remapping_row(1)
                    remap.pa_to_da[1] = remap.pa_to_da[0]
                return super().interval_rows(interval, acts)

        with pytest.raises(AssertionError, match="share one DA slot"):
            simulate_defense(Corrupter(3), LAYOUT, shadow, hcnt=1000,
                             intervals=10)
        assert shadow.total_shuffles() == 4


class TestDirectionalAgreement:
    """Flip rates must order the way the security analysis predicts."""

    def test_incremental_refresh_improves_protection(self):
        def make(seed):
            return ScenarioIIAttacker(LAYOUT, subarray=0, n_aggr=4,
                                      rng=SystemRng(seed))
        with_ir = flip_rate(make, _shadows(16), LAYOUT, hcnt=48,
                            intervals=120, trials=30, seed=1)
        without = flip_rate(make, _shadows(16, incremental_refresh=False),
                            LAYOUT, hcnt=48, intervals=120, trials=30,
                            seed=1)
        assert with_ir <= without

    def test_higher_hcnt_is_safer(self):
        def make(seed):
            return ScenarioIAttacker(LAYOUT, subarray=0,
                                     rng=SystemRng(seed))
        weak = flip_rate(make, _shadows(16), LAYOUT, hcnt=24,
                         intervals=80, trials=25, seed=2)
        strong = flip_rate(make, _shadows(16), LAYOUT, hcnt=96,
                           intervals=80, trials=25, seed=2)
        assert strong <= weak

    def test_shuffle_is_the_main_defence(self):
        def make(seed):
            return ScenarioIIAttacker(LAYOUT, subarray=0, n_aggr=2,
                                      rng=SystemRng(seed))
        shuffled = flip_rate(make, _shadows(16), LAYOUT, hcnt=160,
                             intervals=60, trials=25, seed=3)
        static = flip_rate(make, _unprotected, LAYOUT, hcnt=160,
                           intervals=60, trials=25, seed=3,
                           acts_per_interval=16)
        assert shuffled < static
        assert static > 0.9   # without any defence the attack lands

    def test_validation(self):
        with pytest.raises(ValueError):
            flip_rate(lambda s: _FixedRowAttacker(1), _shadows(4), LAYOUT,
                      hcnt=10, intervals=10, trials=0)
