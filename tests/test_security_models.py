"""Per-scheme security models and the interval Monte Carlo per scheme."""

import pytest

from repro.analysis.security import (
    SECURITY_MODELS,
    SecurityAnalysis,
    SecurityParams,
    resilient_trr_rank_year,
    sampled_trr_rank_year,
)
from repro.analysis.montecarlo import simulate_defense
from repro.dram.subarray import SubarrayLayout
from repro.rowhammer.adversary import ScenarioIAttacker
from repro.spec.registry import SCHEMES, UnknownNameError
from repro.utils.rng import SystemRng


class TestSecurityModelRegistry:
    def test_all_analyzable_schemes_registered(self):
        names = SECURITY_MODELS.names()
        for expected in ("shadow", "parfm", "mint", "dapper"):
            assert expected in names

    def test_unknown_model_gets_did_you_mean(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            SECURITY_MODELS.resolve("shadwo")

    def test_shadow_model_matches_direct_analysis(self):
        direct = SecurityAnalysis(
            SecurityParams(hcnt=4096, raaimt=64)).rank_year()
        via_registry = SECURITY_MODELS.resolve("shadow")(4096, raaimt=64)
        assert via_registry["overall"] == direct["overall"]

    def test_shadow_model_derives_default_raaimt(self):
        r = SECURITY_MODELS.resolve("shadow")(4096)
        assert r["raaimt"] == 64.0
        assert r["overall"] < 0.01

    def test_mint_matches_parfm_distribution(self):
        # Identical per-window selection distribution => identical bound
        # at the same RAAIMT.
        mint = SECURITY_MODELS.resolve("mint")(4096, raaimt=32)
        parfm = SECURITY_MODELS.resolve("parfm")(4096, raaimt=32)
        assert mint["overall"] == parfm["overall"]

    def test_every_model_secure_at_paper_threshold(self):
        for name in SECURITY_MODELS.names():
            r = SECURITY_MODELS.resolve(name)(4096)
            assert r["overall"] < 0.01, name


class TestSampledTrrBound:
    def test_secure_at_derived_raaimt(self):
        assert sampled_trr_rank_year(4096, 32)["overall"] < 1e-20

    def test_insecure_when_sampling_too_sparse(self):
        # One sample per 4096 activations against Hcnt=64: the attacker
        # evades with near certainty.
        r = sampled_trr_rank_year(64, 4096)
        assert r["overall"] > 0.5

    def test_monotone_in_raaimt(self):
        tighter = sampled_trr_rank_year(1024, 8)["overall"]
        looser = sampled_trr_rank_year(1024, 64)["overall"]
        assert tighter <= looser

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_trr_rank_year(0, 32)


class TestResilientTrrBound:
    def test_deterministic_secure_across_table_ii_range(self):
        from repro.mitigations.dapper import dapper_entries, dapper_raaimt
        for hcnt in (1024, 2048, 4096, 8192):
            r = resilient_trr_rank_year(
                hcnt, dapper_raaimt(hcnt), dapper_entries(hcnt))
            assert r["overall"] == 0.0, hcnt
            assert r["margin_acts"] > 0

    def test_undersized_table_voids_the_guarantee(self):
        r = resilient_trr_rank_year(4096, 16, entries=8)
        assert r["overall"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            resilient_trr_rank_year(4096, 16, entries=0)


class TestTrackerDefenseMonteCarlo:
    LAYOUT = SubarrayLayout(subarrays_per_bank=2, rows_per_subarray=32)

    def _run(self, scheme, hcnt=64, **kw):
        mitigation = SCHEMES.build(scheme, **(
            {} if scheme == "none" else {"hcnt": hcnt}))
        attacker = ScenarioIAttacker(self.LAYOUT, 0, SystemRng(7))
        return simulate_defense(
            attacker, self.LAYOUT, mitigation, hcnt=hcnt,
            intervals=200, **kw)

    def test_unprotected_flips(self):
        assert self._run("none").flipped

    @pytest.mark.parametrize("scheme", ["mint", "dapper", "shadow"])
    def test_defends(self, scheme):
        result = self._run(scheme)
        assert not result.flipped
        assert result.intervals_run == 200

    def test_graphene_defends_at_matched_radius(self):
        result = self._run("graphene", blast_radius=1, ref_every=20)
        assert not result.flipped

    @pytest.mark.parametrize("pa_row", [10, 62])
    def test_ref_boundary_sweeps_every_da_row(self, pa_row):
        # PA 62 sits at DA 63 and disturbs DA rows up to 65: a REF
        # window must recharge all 66 DA rows, as the controller's sweep
        # does, not only the first 63.
        class FixedRow:
            def interval_rows(self, interval, acts):
                return [pa_row] * acts

        assert self.LAYOUT.mc_rows_per_bank == 64
        assert self.LAYOUT.da_rows_per_bank == 66
        result = simulate_defense(
            FixedRow(), self.LAYOUT, SCHEMES.build("none"), hcnt=10_000,
            intervals=4, ref_every=2)
        assert not result.flipped
        assert result.max_disturbance == 0.0

    def test_validation(self):
        mitigation = SCHEMES.build("none")
        attacker = ScenarioIAttacker(self.LAYOUT, 0, SystemRng(7))
        with pytest.raises(ValueError):
            simulate_defense(attacker, self.LAYOUT, mitigation,
                             hcnt=64, intervals=0)


class TestSecurityCli:
    @pytest.mark.parametrize("scheme", ["shadow", "mint", "dapper",
                                        "parfm"])
    def test_security_subcommand_per_scheme(self, scheme, capsys):
        from repro.cli import main
        rc = main(["security", "--scheme", scheme, "--hcnt", "4096"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "secure (<1%/rank-year): True" in out
