"""The shadow-repro CLI."""

import importlib
import json
import pathlib

import pytest

from repro.cli import build_parser, main, make_scheme, summary_lines
from repro.core import Shadow
from repro.mitigations import (
    BlockHammer,
    DoubleRefreshRate,
    NoMitigation,
    Parfm,
    RandomizedRowSwap,
)


class TestMakeScheme:
    @pytest.mark.parametrize("name,cls", [
        ("none", NoMitigation),
        ("shadow", Shadow),
        ("parfm", Parfm),
        ("blockhammer", BlockHammer),
        ("rrs", RandomizedRowSwap),
        ("drr", DoubleRefreshRate),
    ])
    def test_known_schemes(self, name, cls):
        assert isinstance(make_scheme(name, 4096), cls)

    def test_shadow_uses_secure_raaimt(self):
        assert make_scheme("shadow", 2048).config.raaimt == 32

    def test_unknown_scheme(self):
        with pytest.raises(SystemExit):
            make_scheme("magic", 4096)


class TestCommands:
    def test_run_command(self, capsys):
        rc = main(["run", "--workload", "gcc", "--scheme", "none",
                   "--requests", "150", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests=150" in out
        assert "scheme=baseline" in out

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "doom"])

    def test_security_command(self, capsys):
        rc = main(["security", "--hcnt", "4096", "--raaimt", "64"])
        assert rc == 0
        assert "secure (<1%/rank-year): True" in capsys.readouterr().out

    def test_attack_command_shadow_defends(self, capsys):
        rc = main(["attack", "--scenario", "1", "--hcnt", "64",
                   "--raaimt", "4", "--intervals", "150"])
        assert rc == 0   # no flip under SHADOW
        assert "flipped=False" in capsys.readouterr().out

    def test_attack_command_no_shuffle_flips(self, capsys):
        rc = main(["attack", "--scenario", "2", "--hcnt", "48",
                   "--raaimt", "16", "--intervals", "100",
                   "--no-shuffle"])
        assert rc == 1   # exit code signals the flip
        assert "flipped=True" in capsys.readouterr().out

    def test_templating_command(self, capsys):
        rc = main(["templating", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static:" in out and "shadow:" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro.version import __version__
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_log_level_flag_configures_logging(self, capsys):
        import logging
        rc = main(["--log-level", "debug", "security",
                   "--hcnt", "4096", "--raaimt", "64"])
        assert rc == 0
        assert logging.getLogger().level == logging.DEBUG
        logging.getLogger().setLevel(logging.WARNING)

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "chatty", "security"])


class TestObservabilityCommands:
    def test_stats_command(self, capsys):
        rc = main(["stats", "--workload", "mcf", "--scheme", "shadow",
                   "--requests", "300", "--sample-interval", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "row-hit rate:" in out
        assert "candidate cache:" in out
        assert "translation" in out
        assert "raa:" in out and "rfms_issued=" in out
        assert "drains:" in out and "look-ahead advances" in out
        assert "snapshots:" in out

    def test_summary_without_drain_block_still_prints(self):
        # Summaries cached before the drain counters existed lack the
        # block; they print everything else.
        from repro.obs import Observability
        from repro.sim import System, SystemConfig
        from repro.workloads import WorkloadProfile

        obs = Observability(metrics=True)
        profile = WorkloadProfile(name="w", mpki=5.0,
                                  row_buffer_locality=0.5)
        System([profile], obs=obs,
               config=SystemConfig(requests_per_thread=50)).run()
        summary = dict(obs.summary)
        assert set(summary["drain"]) == {"calls", "empty", "lookaheads"}
        assert summary["drain"]["calls"] > summary["drain"]["empty"]
        full = summary_lines(summary)
        del summary["drain"]
        old = summary_lines(summary)
        assert [line for line in full
                if not line.startswith("drains:")] == old

    def test_stats_command_without_rfm_scheme(self, capsys):
        rc = main(["stats", "--workload", "gcc", "--scheme", "none",
                   "--requests", "200"])
        assert rc == 0
        assert "no RFM interface" in capsys.readouterr().out

    def test_trace_command_chrome(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "run.trace.json"
        rc = main(["trace", "--workload", "mcf", "--scheme", "shadow",
                   "--requests", "300", "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]

    def test_trace_command_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl
        out_path = tmp_path / "run.jsonl"
        rc = main(["trace", "--workload", "mcf", "--scheme", "none",
                   "--requests", "200", "--format", "jsonl",
                   "--out", str(out_path)])
        assert rc == 0
        events = read_jsonl(out_path)
        assert any(e["ph"] == "X" for e in events)


REPO = pathlib.Path(__file__).resolve().parent.parent

#: Every experiment with its committed result file and the first line
#: its table starts with.
COMMITTED = [
    ("fig8", "fig8_smoke", "Figure 8: performance relative"),
    ("fig9", "fig9_smoke", "Figure 9: SHADOW tRCD sensitivity"),
    ("fig10", "fig10_smoke", "Figure 10: blast-radius sensitivity"),
    ("fig11", "fig11_smoke", "Figure 11: SHADOW vs BlockHammer vs RRS"),
    ("fig12", "fig12_smoke", "Figure 12: SHADOW relative system power"),
    ("ablations", "ablations_smoke", "Ablation: timing charges"),
    ("extended", "extended_smoke", "Extended comparison on mix-blend"),
    ("redteam", "redteam_smoke", "Red team: Hcnt="),
    ("table2", "table2", "Table II: SHADOW bit-flip probability"),
    ("table3", "table3", "Table III: SHADOW timing values"),
]


class TestExperimentCommand:
    """``experiment``, ``redteam`` and ``run --spec`` share one
    run-report-render-save path."""

    @pytest.mark.parametrize("name,result,title", COMMITTED,
                             ids=[c[0] for c in COMMITTED])
    def test_render_formats_committed_result(self, name, result, title):
        module = importlib.import_module(f"repro.experiments.{name}")
        with open(REPO / "results" / f"{result}.json") as handle:
            results = json.load(handle)
        lines = module.render(results).splitlines()
        assert lines[0].startswith(title)
        # Title, header, rule and at least one row.
        assert len(lines) >= 4

    def test_table3_regenerates_committed_result(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "table3"]) == 0
        saved = tmp_path / "results" / "table3.json"
        assert saved.read_bytes() == (REPO / "results"
                                      / "table3.json").read_bytes()
        # stdout is the committed log plus the engine summary line.
        out = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("engine: ")]
        log = (REPO / "results" / "log_table3.txt").read_text()
        assert out == log.splitlines()

    def test_analytic_tables_reject_engine_flags(self):
        with pytest.raises(SystemExit, match="only apply to"):
            main(["experiment", "table2", "--jobs", "2"])

    def test_dump_spec_and_run_share_default_fidelity(self, capsys):
        assert build_parser().parse_args(
            ["experiment", "fig12"]).fidelity == "full"
        assert main(["experiment", "fig12", "--dump-spec"]) == 0
        assert json.loads(capsys.readouterr().out)["fidelity"] == "full"

    def test_redteam_defaults_to_smoke(self):
        assert build_parser().parse_args(["redteam"]).fidelity == "smoke"

    def test_run_spec_keep_going_failure_exits_nonzero(
            self, tmp_path, monkeypatch, capsys):
        from repro.spec import (
            ExperimentSpec, PointSpec, SimSpec, scheme_spec, workload_spec)
        spec = ExperimentSpec("faulty", "smoke", [PointSpec(
            "ws-relative", ("drr",),
            workload=workload_spec("mix-high", threads=2),
            scheme=scheme_spec("drr"), sim=SimSpec(requests=120, seed=7))])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "drr")
        rc = main(["run", "--spec", str(path), "--no-cache",
                   "--keep-going"])
        assert rc == 1
        assert any(line.startswith("FAILED: ")
                   for line in capsys.readouterr().out.splitlines())
        with open(tmp_path / "results" / "faulty_smoke.json") as handle:
            assert "failures" in json.load(handle)
