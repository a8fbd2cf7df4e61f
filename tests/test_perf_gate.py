"""The same-runner speed gate (``tools/perf_gate.py``), fed canned
perfbench output instead of real runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

WORKLOADS, BOUNDS = gate.load_benchmark(ROOT / "BENCHMARK.json")

BASE = {"wall_s": 10.0, "host_ns_per_cmd": 30_000.0, "setup_s": 0.5,
        "peak_rss_mb": 80.0}


def output(correct=True, attempted=10, failed=0, digest="d1", **metrics):
    """What ``perfbench/run.py --trace 0`` prints on stdout."""
    values = dict(BASE, **metrics)
    record = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "x"}
                          for name, value in values.items()}}
    return (f"digest fig8-sweep seed=3 {digest}\n"
            f"{json.dumps(record)}\n")


def pairs(change_text, base_text=None, n=5):
    base = gate.parse_output(base_text or output())
    return [(base, gate.parse_output(change_text)) for _ in range(n)]


class TestVerdict:
    def test_pass_within_bound(self):
        verdict = gate.compare(
            pairs(output(wall_s=11.0, host_ns_per_cmd=33_000.0)), BOUNDS)
        assert verdict["failures"] == []
        wall = verdict["metrics"]["wall_s"]
        assert wall["base"]["median"] == 10.0
        assert wall["change"]["median"] == 11.0
        assert wall["delta"] == pytest.approx(0.10)
        assert wall["wins"] == 0

    @pytest.mark.parametrize("name", sorted(BASE))
    def test_fail_beyond_bound(self, name):
        better, bound = BOUNDS[name]
        step = 1.0 if better == "lower" else -1.0
        inside = BASE[name] * (1.0 + step * (bound - 0.02))
        beyond = BASE[name] * (1.0 + step * (bound + 0.02))
        assert gate.compare(pairs(output(**{name: inside})),
                            BOUNDS)["failures"] == []
        failures = gate.compare(pairs(output(**{name: beyond})),
                                BOUNDS)["failures"]
        assert len(failures) == 1 and failures[0].startswith(f"{name}:")

    def test_direction(self):
        # Every end-to-end metric is lower-is-better: a large
        # improvement passes.  A higher-is-better metric fails the
        # other way round.
        faster = {name: value * 0.5 for name, value in BASE.items()}
        verdict = gate.compare(pairs(output(**faster)), BOUNDS)
        assert verdict["failures"] == []
        assert verdict["metrics"]["wall_s"]["wins"] == 5
        higher = {"wall_s": ("higher", 0.15)}
        assert gate.compare(pairs(output(wall_s=20.0)), higher)[
            "failures"] == []
        assert gate.compare(pairs(output(wall_s=8.0)), higher)["failures"]

    def test_medians_over_alternating_noise(self):
        # One slow change run out of five does not move the median.
        runs = pairs(output())
        runs[2] = (runs[2][0], gate.parse_output(output(wall_s=30.0)))
        verdict = gate.compare(runs, BOUNDS)
        assert verdict["failures"] == []
        assert verdict["metrics"]["wall_s"]["change"]["iqr"] > 0

    def test_fail_on_incorrect_change(self):
        failures = gate.compare(pairs(output(correct=False)),
                                BOUNDS)["failures"]
        assert failures == ["change: a run reported correct: false"]

    def test_fail_on_higher_failed_share(self):
        failures = gate.compare(pairs(output(failed=1)), BOUNDS)["failures"]
        assert len(failures) == 1 and "failed share" in failures[0]
        # The same share as the base is not a failure.
        assert gate.compare(pairs(output(failed=1), output(failed=1)),
                            BOUNDS)["failures"] == []

    def test_fail_on_unfinished_run(self):
        runs = pairs(output())
        runs[0] = (runs[0][0], None)
        failures = gate.compare(runs, BOUNDS)["failures"]
        assert failures == ["change: 1 of 5 perfbench runs did not finish"]

    def test_digests_recorded(self):
        verdict = gate.compare(pairs(output(digest="d2")), BOUNDS)
        assert verdict["base"]["digests"] == ["d1"]
        assert verdict["change"]["digests"] == ["d2"]

    def test_parse_output_without_record(self):
        assert gate.parse_output("") is None
        assert gate.parse_output("digest fig8-sweep seed=3 d1\n") is None


class TestBenchmarkJson:
    def test_bounds_come_from_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert WORKLOADS == [w["name"] for w in spec["workloads"]]
        assert BOUNDS == {m["name"]: (m["better"], m["bound"])
                          for m in spec["end_to_end"]}

    def test_a_looser_bound_changes_the_verdict(self, tmp_path):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in spec["end_to_end"]:
            metric["bound"] = 0.5
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps(spec))
        _, loose = gate.load_benchmark(path)
        slower = pairs(output(wall_s=13.0))
        assert gate.compare(slower, BOUNDS)["failures"]
        assert gate.compare(slower, loose)["failures"] == []

    def test_invalid_bound_rejected(self, tmp_path):
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps({"workloads": [], "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 1.5}]}))
        with pytest.raises(ValueError, match="wall_s"):
            gate.load_benchmark(path)


class TestMain:
    def test_alternates_sides_and_writes_record(self, tmp_path,
                                                monkeypatch):
        base_dir = (tmp_path / "base").resolve()
        base_dir.mkdir()
        calls = []
        seeds = set()

        def fake_run(checkout, workload, seed):
            side = "base" if checkout == base_dir else "change"
            calls.append((workload, side))
            seeds.add(seed)
            slow = side == "change" and workload == "sparse-refresh"
            return gate.parse_output(output(wall_s=11.0 if slow else 10.0))

        monkeypatch.setattr(gate, "run_perfbench", fake_run)
        out = tmp_path / "gate.json"
        rc = gate.main(["--base-dir", str(base_dir), "--pairs", "3",
                        "--out", str(out)])
        assert rc == 0
        assert seeds == {gate.DEFAULT_SEED} == {3}
        fig8 = [side for workload, side in calls if workload == "fig8-sweep"]
        assert fig8 == ["base", "change", "change", "base", "base",
                        "change"]
        record = json.loads(out.read_text())
        assert record["pass"] is True
        assert set(record["workloads"]) == set(WORKLOADS)
        sparse = record["workloads"]["sparse-refresh"]["metrics"]["wall_s"]
        assert sparse["delta"] == pytest.approx(0.1)
        assert sparse["bound"] == BOUNDS["wall_s"][1]
        assert record["seed"] == 3
        # ``--seed`` reaches every run and the record.
        seeds.clear()
        assert gate.main(["--base-dir", str(base_dir), "--pairs", "1",
                          "--seed", "11", "--out", str(out)]) == 0
        assert seeds == {11}
        assert json.loads(out.read_text())["seed"] == 11

    def test_a_regression_exits_nonzero(self, tmp_path, monkeypatch):
        # One slow workload fails the whole gate.
        base_dir = tmp_path.resolve()
        monkeypatch.setattr(
            gate, "run_perfbench",
            lambda checkout, workload, seed: gate.parse_output(output(
                wall_s=13.0 if checkout != base_dir
                and workload == "redteam-zoo" else 10.0)))
        out = tmp_path / "gate.json"
        rc = gate.main(["--base-dir", str(base_dir), "--pairs", "1",
                        "--out", str(out)])
        assert rc == 1
        record = json.loads(out.read_text())
        assert record["pass"] is False
        assert [w for w, verdict in record["workloads"].items()
                if verdict["failures"]] == ["redteam-zoo"]

    def test_base_dir_recorded_as_its_commit(self, tmp_path, monkeypatch):
        # A checkout is named by its commit; a plain directory inside
        # another repository keeps its path, not that repository's commit.
        repo = tmp_path / "repo"
        plain = repo / "unpacked"
        plain.mkdir(parents=True)
        subprocess.run(["git", "init", "-q", str(repo)], check=True)
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=gate",
                        "-c", "user.email=gate@example.com", "commit", "-q",
                        "--allow-empty", "-m", "base"], check=True)
        head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
        monkeypatch.setattr(gate, "run_perfbench",
                            lambda checkout, workload, seed:
                            gate.parse_output(output()))
        out = tmp_path / "gate.json"
        for base_dir, want in ((repo, head), (plain, str(plain))):
            assert gate.main(["--base-dir", str(base_dir), "--pairs", "1",
                              "--out", str(out)]) == 0
            assert json.loads(out.read_text())["base"] == want
