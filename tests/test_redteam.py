"""Red-team harness: grid construction and end-to-end discrimination."""

import hashlib
import json

import pytest

from repro.experiments.driver import derive_labels, plan_spec
from repro.experiments.engine import Engine
from repro.experiments.redteam import (
    FULL_ATTACKS,
    SMOKE_ATTACKS,
    redteam_schemes,
    render,
    run,
    spec,
)
from repro.spec import ExperimentSpec


def jobs(fidelity="smoke", **kwargs):
    """The job the driver plans for each (scheme, attack) point."""
    resolved, plans, _ = plan_spec(spec(fidelity, **kwargs))
    return {rp.point.group[1:]: plan["run"]
            for rp, plan in zip(resolved, plans)}


class TestGrid:
    def test_every_cell_is_a_faults_point(self):
        grid = spec("full")
        assert grid.name == "redteam"
        assert {point.metric for point in grid.points} == {"faults"}
        assert all(point.group[0] == "schemes" for point in grid.points)
        assert derive_labels(grid)["attacks"] == sorted(FULL_ATTACKS)

    def test_unknown_fault_param_is_an_error(self):
        payload = spec("smoke").to_dict()
        payload["points"][0]["params"]["blast"] = 2
        with pytest.raises(TypeError, match="blast"):
            plan_spec(ExperimentSpec.from_dict(payload))

    def test_smoke_grid_is_the_ci_pair(self):
        grid = jobs("smoke")
        assert set(grid) == {("none", "double-sided"),
                             ("shadow", "double-sided")}
        assert redteam_schemes("smoke") == ["none", "shadow"]

    def test_full_grid_covers_the_zoo(self):
        grid = jobs("full")
        schemes = {scheme for scheme, _ in grid}
        attacks = {attack for _, attack in grid}
        assert "none" in schemes and "shadow" in schemes
        assert len(schemes) > 5
        assert attacks == set(FULL_ATTACKS)

    def test_requests_sized_to_attack_efficiency(self):
        grid = jobs("full", hcnt=1024)
        per_attack = {attack: job.config.requests_per_thread
                      for (scheme, attack), job in grid.items()
                      if scheme == "none"}
        # Every pattern gets at least threshold + headroom...
        for attack, requests in per_attack.items():
            assert requests > 1024, attack
        # ... and dilute patterns proportionally more raw activations.
        assert per_attack["many-sided"] > per_attack["double-sided"]

    def test_jobs_carry_fault_specs_and_serial_acts(self):
        for (_, attack), job in jobs("smoke", hcnt=64).items():
            assert job.faults is not None
            assert job.faults.hcnt == 64
            assert job.config.mlp == 1     # no FR-FCFS batching
            assert "faults" in job.spec

    def test_half_double_jobs_enable_refresh_hammering(self):
        grid = jobs("full", hcnt=64)
        assert grid[("none", "half-double")].faults \
            .refresh_hammers_neighbors
        assert not grid[("none", "double-sided")].faults \
            .refresh_hammers_neighbors


#: sha256 over the sorted canonical job keys of each grid, recorded from
#: the planner that preceded the spec.  The keys are the result cache's
#: identity and what perfbench's redteam-zoo digest is built from, so a
#: planner change that moves them re-keys every cell.
JOB_KEY_PINS = [
    ({"fidelity": "smoke"}, 2,
     "250b15e3ac8bcc9b4d82fb931e9afbf4f53080588492c51b3acfe8c145bcf576"),
    ({"fidelity": "full"}, 48,
     "901162ac5d45e6eb59d9a03751fcbb962fdcba0f4b9ef585cc17249ce882d508"),
    ({"fidelity": "full", "hcnt": 1024, "seed": 3}, 48,
     "7799128d53da5a0840e567737c02403f27fb233d69fade773fec43facae3052b"),
    ({"fidelity": "full", "hcnt": 1024, "seed": 5}, 48,
     "6c9cee8d61750c66f62998acc67ddcc9ad4cfb4cd0e1f6d9e2bb0bc543048047"),
]


class TestJobKeys:
    @pytest.mark.parametrize("kwargs,count,digest", JOB_KEY_PINS,
                             ids=["smoke", "full", "full-1024-s3",
                                  "full-1024-s5"])
    def test_job_keys_are_pinned(self, kwargs, count, digest):
        from repro.utils.cache import canonical_json
        keys = sorted(canonical_json(job.spec)
                      for job in jobs(**kwargs).values())
        assert len(keys) == count
        assert hashlib.sha256(
            "\n".join(keys).encode()).hexdigest() == digest


class TestEndToEnd:
    def test_smoke_discriminates_none_from_shadow(self):
        # The CI check at unit-test scale: same trace, same seed, tiny
        # hcnt -- the undefended baseline takes an uncorrectable flip,
        # SHADOW takes none.
        report = run("smoke", engine=Engine(use_cache=False), hcnt=192,
                     seed=1)
        assert report["attacks"] == list(SMOKE_ATTACKS)
        none_entry = report["schemes"]["none"]["double-sided"]
        shadow_entry = report["schemes"]["shadow"]["double-sided"]
        assert none_entry["uncorrectable"] >= 1
        assert none_entry["time_to_first_flip_ns"] > 0
        assert shadow_entry["bits_injected"] == 0
        assert shadow_entry["time_to_first_flip_ns"] is None
        assert "failures" not in report

    def test_report_is_json_able_and_renders(self):
        report = run("smoke", engine=Engine(use_cache=False), hcnt=192,
                     seed=1)
        json.dumps(report)
        table = render(report)
        assert "none" in table and "shadow" in table
        assert "double-sided" in table
