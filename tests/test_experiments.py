"""Experiment drivers: reporting helpers and the fast (analytic) runs."""

import json
import os

import pytest

from repro.core.config import secure_raaimt
from repro.core.factories import make_shadow, make_shadow_with_trcd
from repro.experiments import (
    extended, fidelity_config, redteam, table2, table3,
)
from repro.experiments.engine import archsim_scheme_specs, rfm_scheme_specs
from repro.experiments.report import format_table, save_results, scientific
from repro.dram.device import DramGeometry
from repro.dram.timing import DDR4_2666
from repro.mitigations import FilteredRfm
from repro.spec.registry import SCHEMES


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["xy", 3.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_scientific_notation(self):
        assert scientific(0.0) == "0"
        assert scientific(-1) == "0"
        assert scientific(1.0) == "1"
        assert scientific(2.3e-15) == "2E-15"
        assert scientific(0.4) == "4E-1"

    def test_save_results_roundtrip(self, tmp_path):
        path = save_results("unit", {"x": 1}, directory=str(tmp_path))
        with open(path) as handle:
            assert json.load(handle) == {"x": 1}
        assert os.path.basename(path) == "unit.json"

    def test_save_results_atomic_no_temp_left_behind(self, tmp_path):
        save_results("unit", {"x": 1}, directory=str(tmp_path))
        save_results("unit", {"x": 2}, directory=str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["unit.json"]
        with open(tmp_path / "unit.json") as handle:
            assert json.load(handle) == {"x": 2}

    def test_save_results_failed_write_cleans_up(self, tmp_path):
        bad = {}
        bad["self"] = bad   # circular: fails mid-dump despite default=str
        with pytest.raises(ValueError):
            save_results("broken", bad, directory=str(tmp_path))
        # Neither a partial target nor a stranded temp file remains.
        assert list(tmp_path.iterdir()) == []

    def test_save_results_creates_nested_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        path = save_results("deep", {"ok": True}, directory=str(target))
        with open(path) as handle:
            assert json.load(handle) == {"ok": True}


class TestFidelity:
    def test_levels(self):
        smoke = fidelity_config("smoke")
        full = fidelity_config("full")
        assert smoke.threads < full.threads
        assert smoke.requests_per_thread < full.requests_per_thread
        with pytest.raises(ValueError):
            fidelity_config("ludicrous")

    def test_system_config_uses_paper_geometry(self):
        cfg = fidelity_config("smoke").sim_spec().to_system_config()
        paper = DramGeometry()
        assert cfg.geometry.total_banks == paper.total_banks == 128


class TestSchemeFactories:
    def test_rfm_set_complete(self):
        specs = rfm_scheme_specs(4096)
        assert set(specs) == {"SHADOW", "PARFM", "Mithril-perf",
                              "Mithril-area", "DRR"}
        # Fresh instances each build.
        assert specs["SHADOW"].build() is not specs["SHADOW"].build()

    def test_archsim_set_complete(self):
        assert set(archsim_scheme_specs(4096)) == \
            {"SHADOW", "BlockHammer", "RRS"}

    def test_shadow_trcd_override(self):
        geometry = DramGeometry()
        for target in (23, 25, 27):
            shadow = make_shadow_with_trcd(target, hcnt=4096)
            shadow.bind(geometry, DDR4_2666)
            assert shadow.timings.trcd_prime_cycles == target, target
        with pytest.raises(ValueError):
            make_shadow_with_trcd(19, hcnt=4096)

    def test_distinct_names_for_distinct_timing(self):
        a = make_shadow_with_trcd(23, hcnt=4096)
        b = make_shadow_with_trcd(27, hcnt=4096)
        assert a.name != b.name   # alone-run cache keys must differ

    def test_make_shadow_uses_secure_raaimt(self):
        assert make_shadow(2048).config.raaimt == 32


class TestSchemeSet:
    """The ``filtered`` composite stays out of every hcnt-only sweep."""

    def test_filtered_registered_but_not_swept(self):
        from repro.cli import cli_scheme_names
        assert "filtered" in SCHEMES.names()
        assert "filtered" not in extended.matrix_schemes()
        assert "filtered" not in redteam.redteam_schemes("full")
        assert "filtered" not in cli_scheme_names()

    def test_filtered_matches_hand_built_wrapper(self):
        built = SCHEMES.build("filtered", inner="shadow", hcnt=4096)
        hand = FilteredRfm(make_shadow(4096),
                           hazard_threshold=max(8, secure_raaimt(4096) // 4))
        assert built.name == hand.name
        assert built.hazard_threshold == hand.hazard_threshold

    def test_extended_rows(self):
        rows = {point.group[1] for point in extended.spec("smoke").points}
        labels = {extended._DISPLAY.get(name, name)
                  for name in extended.matrix_schemes()}
        assert len(labels) == len(extended.matrix_schemes())
        assert rows == labels | {"SHADOW+filter"}


class TestAnalyticDrivers:
    def test_table2_structure(self):
        results = table2.run()
        assert len(results["cells"]) == 9
        cell = results["cells"]["64,4096"]
        assert cell["secure"]
        assert cell["probability"] == pytest.approx(1.9e-14, rel=1.0)

    def test_table3_structure(self):
        results = table3.run()
        assert set(results["rows"]) == {"tRCD'", "row-copy", "tRCD_RM",
                                        "tWR_RM", "tRD_RM"}
        assert results["shuffle_total_ns"]["DDR4-2666"] == \
            pytest.approx(178, abs=4)
