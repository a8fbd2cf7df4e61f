"""The paper's claims, checked on the committed results.

Each figure and table test asserts the paper's qualitative shape -- who
wins, by roughly what margin, where the crossovers fall -- with the
bound and the paper citation it came with.  The tests read the
committed ``results/<name>_smoke.json`` and, where one exists,
``results/<name>_full.json`` (the closed-form tables have one file,
``results/<name>.json``), so they cost milliseconds.  CI's
``results-regen`` job keeps the smoke and analytic files equal to what
the code under test produces; the ``_full`` files are not regenerated in
CI.

The last tests check EXPERIMENTS.md: every ``<!-- render <file> -->``
block must equal the experiment's ``render()`` of the file it names
(trailing blanks aside), and a section's prose may quote a measured
number only if it appears in that section's rendered tables.
"""

import importlib
import json
import math
import pathlib
import re

import pytest

from repro.experiments import table2
from repro.experiments.configs import HCNT_SWEEP

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"


def load(path: pathlib.Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def committed(name: str):
    """``name``'s smoke result and, where one exists, its full result."""
    paths = [RESULTS / f"{name}_smoke.json"]
    full = RESULTS / f"{name}_full.json"
    if full.exists():
        paths.append(full)
    return [pytest.param(load(p), id=p.stem) for p in paths]


def analytic(name: str):
    """A closed-form table's single result file."""
    return [pytest.param(load(RESULTS / f"{name}.json"), id=name)]


def paper_probability(cell: dict) -> float:
    """Table II's printed value: '1', '0' or a mantissa-E-exponent."""
    return {"1": 1.0, "0": 0.0}.get(
        cell["paper"], float(cell["paper"].replace("E", "e")))


# ---------------------------------------------------------------- tables

@pytest.mark.parametrize("results", analytic("table2"))
def test_table2(results):
    cells = results["cells"]

    # Shape 1: the secure set matches the paper's bold entries exactly
    # (anything below the 1%/rank-year budget counts as secure).
    for raaimt in table2.RAAIMT_VALUES:
        for hcnt in table2.HCNT_VALUES:
            cell = cells[f"{raaimt},{hcnt}"]
            assert cell["secure"] == (paper_probability(cell) < 0.01), \
                (raaimt, hcnt)

    # Shape 2: halving RAAIMT collapses the probability super-linearly.
    for hcnt in table2.HCNT_VALUES:
        p128 = cells[f"128,{hcnt}"]["probability"]
        p64 = cells[f"64,{hcnt}"]["probability"]
        p32 = cells[f"32,{hcnt}"]["probability"]
        assert p32 <= p64 <= p128

    # Shape 3: diagonal structure (equal hcnt/raaimt ~ equal regime).
    diag = [cells["128,8192"], cells["64,4096"], cells["32,2048"]]
    logs = [math.log10(max(c["probability"], 1e-300)) for c in diag]
    assert max(logs) - min(logs) < 2.5


@pytest.mark.parametrize("results", analytic("table2"))
def test_table2_every_paper_cell_within_two_decades(results):
    for key, cell in results["cells"].items():
        paper = paper_probability(cell)
        ours = cell["probability"]
        if paper == 0.0:
            assert ours < 1e-80, key
        elif paper >= 0.4:
            assert ours > 1e-2, key
        else:
            assert abs(math.log10(ours) - math.log10(paper)) < 2.0, key


@pytest.mark.parametrize("results", analytic("table3"))
def test_table3(results):
    rows = results["rows"]

    # Every row of the table within tight absolute tolerance.
    assert rows["tRCD'"]["timing_ns"] == pytest.approx(17.7, abs=0.5)
    assert rows["row-copy"]["timing_ns"] == pytest.approx(73.9, abs=1.0)
    assert rows["tRCD_RM"]["timing_ns"] == pytest.approx(2.3, abs=0.5)
    assert rows["tWR_RM"]["timing_ns"] == pytest.approx(9.0, abs=0.5)
    assert rows["tRD_RM"]["timing_ns"] == pytest.approx(4.0, abs=0.5)

    # Ratios against the baseline column.
    assert rows["tRCD'"]["ratio"] == pytest.approx(0.29, abs=0.03)
    assert rows["tRCD_RM"]["ratio"] == pytest.approx(-0.83, abs=0.05)
    assert rows["tWR_RM"]["ratio"] == pytest.approx(-0.24, abs=0.03)
    assert rows["tRD_RM"]["ratio"] == pytest.approx(-0.71, abs=0.05)

    # Section VII-B row-shuffle totals: 178 ns DDR4, 186 ns DDR5.
    totals = results["shuffle_total_ns"]
    assert totals["DDR4-2666"] == pytest.approx(178, abs=4)
    assert totals["DDR5-4800"] == pytest.approx(186, abs=5)


# --------------------------------------------------------------- figures

@pytest.mark.parametrize("results", committed("fig8"))
def test_fig8(results):
    """Figure 8: single-threaded overhead is negligible for every scheme;
    SHADOW stays within a few percent on the memory-intensive mixes."""
    series = results["relative_performance"]

    # Single-threaded applications barely notice any scheme (paper:
    # "rarely increase the execution time", <2% even on spec-high).
    for name, vals in series.items():
        for group in ("spec-high", "spec-med", "spec-low"):
            assert vals[group] > 0.93, (name, group)

    # SHADOW on the mixes: low single-digit overhead (paper: <3%).
    assert series["SHADOW"]["mix-high"] > 0.93
    assert series["SHADOW"]["mix-blend"] > 0.95

    # Mithril-perf (10 KB CAM per bank) never loses to SHADOW by much:
    # its large table buys rare RFMs (paper Section VII-C).
    assert series["Mithril-perf"]["mix-high"] >= \
        series["SHADOW"]["mix-high"] - 0.03

    # Nothing beats the unprotected baseline.
    for name, vals in series.items():
        for workload, rel in vals.items():
            assert rel <= 1.02, (name, workload)


@pytest.mark.parametrize("results", committed("fig9"))
def test_fig9(results):
    series = results["series"]

    # Paper: overhead always below ~4-5% across the sweep.
    for key, vals in series.items():
        for hcnt, rel in vals.items():
            assert rel > 0.93, (key, hcnt)

    # Paper: at high Hcnt (rare RFMs) the tRCD value is what matters, so
    # a larger tRCD' never helps.
    for mix in ("mix-high", "mix-blend"):
        r23 = series[f"{mix}/tRCD23"]["16384"]
        r27 = series[f"{mix}/tRCD27"]["16384"]
        assert r27 <= r23 + 0.01, mix


@pytest.mark.parametrize("results", committed("fig10"))
def test_fig10(results):
    series = results["series"]
    radii = results["radii"]
    lo, hi = str(radii[0]), str(radii[-1])
    for mix in sorted({key.split("/")[0] for key in series}):
        shadow = series[f"{mix}/SHADOW"]
        parfm = series[f"{mix}/PARFM"]
        mithril = series[f"{mix}/Mithril"]

        # SHADOW's mitigating action is radius-independent: its curve is
        # flat (the paper's central Figure 10 claim).
        values = [shadow[str(r)] for r in radii]
        assert max(values) - min(values) < 0.04, mix

        # TRR-based schemes degrade as the radius widens...
        assert parfm[hi] <= parfm[lo] + 0.01, mix
        # ...and SHADOW wins at the widest radius (paper: radius > 2).
        assert shadow[hi] >= parfm[hi] - 0.005, mix
        assert shadow[hi] >= mithril[hi] - 0.005, mix


@pytest.mark.parametrize("results", committed("fig11"))
def test_fig11(results):
    series = results["series"]
    sweep = [str(h) for h in results["hcnt_sweep"]]
    hi, lo = sweep[0], sweep[-1]   # 16K ... 2K
    for mix in sorted({key.split("/")[0] for key in series}):
        shadow = series[f"{mix}/SHADOW"]
        blockhammer = series[f"{mix}/BlockHammer"]
        rrs = series[f"{mix}/RRS"]

        # SHADOW is robust across the whole sweep (paper: best scheme
        # below 4K, always within a few percent).
        for h in sweep:
            assert shadow[h] > 0.9, (mix, h)

        # BlockHammer collapses as the threshold drops (throttle delays
        # grow as tREFW/hcnt and misidentification rises).
        assert blockhammer[lo] < blockhammer[hi], mix
        # SHADOW beats BlockHammer at the lowest threshold.
        assert shadow[lo] > blockhammer[lo], mix

        # RRS never beats SHADOW at the lowest threshold (channel-
        # blocking swaps fire ever more often).
        assert shadow[lo] >= rrs[lo] - 0.03, mix


@pytest.mark.parametrize("results", committed("fig12"))
def test_fig12(results):
    series = results["series"]
    for mix in ("mix-high", "mix-blend"):
        power = series[f"{mix}/relative-power"]
        ratio = series[f"{mix}/rfm-per-ref"]

        # Paper: system-level power cost below 0.63% even at 2K, and
        # never below baseline (SHADOW only ever adds energy).
        for h in HCNT_SWEEP:
            assert 1.0 <= power[str(h)] < 1.0063, (mix, h)

        # The RFM count grows as Hcnt shrinks (RAAIMT drops)...
        assert ratio["2048"] >= ratio["16384"], mix
        # ...while the power stays nearly flat (dominated by the
        # per-ACT remapping-row accesses, not the shuffles).
        spread = max(power[str(h)] for h in HCNT_SWEEP) \
            - min(power[str(h)] for h in HCNT_SWEEP)
        assert spread < 0.005, mix


# ------------------------------------------------------------ extensions

@pytest.mark.parametrize("results", committed("ablations"))
def test_ablations(results):
    """SHADOW's design choices (DESIGN.md Sec. 6)."""
    timing = results["timing"]

    # Subarray pairing hides the remapping-row restore/precharge: without
    # it both the ACT path and the RFM work get much slower.
    assert timing["no pairing"]["act_extra_cycles"] > \
        3 * timing["full SHADOW"]["act_extra_cycles"]
    assert timing["no pairing"]["rfm_work_ns"] > \
        timing["full SHADOW"]["rfm_work_ns"]

    # The isolation transistor is what makes the remapping read cheap.
    assert timing["no isolation"]["act_extra_cycles"] > \
        timing["full SHADOW"]["act_extra_cycles"]

    # Dropping the incremental refresh saves (tRAS + tRP) per RFM.
    assert timing["no incr. refresh"]["rfm_work_ns"] < \
        timing["full SHADOW"]["rfm_work_ns"]

    protection = results["protection"]
    # Protection ordering: full SHADOW <= no-incremental <= undefended.
    assert protection["with incremental refresh"] <= \
        protection["without incremental refresh"] + 0.05
    assert protection["no shuffle (RFM only)"] > 0.8
    assert protection["with incremental refresh"] < \
        protection["no shuffle (RFM only)"]

    performance = results["performance"]
    # The LFSR RNG option (Section VIII) performs the same as the
    # system RNG of the full SHADOW row.
    assert abs(performance["LFSR RNG"]
               - performance["full SHADOW"]) < 0.03
    # The un-paired variant pays for its longer tRCD'.
    assert performance["no pairing"] <= performance["full SHADOW"] + 0.01


@pytest.mark.parametrize("results", committed("extended"))
def test_extended(results):
    """The all-schemes comparison, with SHADOW's RFM filter."""
    schemes = results["schemes"]

    # Everyone stays within sane bounds on mix-blend at 4K.
    for name, vals in schemes.items():
        assert 0.5 < vals["relative_performance"] <= 1.02, name

    # The hazard filter removes some RFM work on benign traffic without
    # costing performance (paper Section VIII's pitch).
    plain = schemes["SHADOW"]["relative_performance"]
    filtered = schemes["SHADOW+filter"]
    assert filtered["rfms_filtered"] > 0
    assert filtered["relative_performance"] >= plain - 0.02

    # RFM-based schemes actually issued RFMs.
    for name in ("SHADOW", "PARFM", "Mithril-area"):
        assert schemes[name]["rfms"] > 0, name


# ---------------------------------------------------------- EXPERIMENTS.md

#: A rendered table: the marker names the result file, the fenced block
#: below it holds that file's ``render()`` output, trailing blanks aside.
RENDER_BLOCK = re.compile(
    r"<!-- render (results/[\w.]+\.json) -->\n```text\n(.*?)\n```\n",
    re.DOTALL)

#: A decimal in prose that is not a percentage: a quoted measurement.
QUOTED_NUMBER = re.compile(r"(?<![\w.])\d+\.\d+(?![\d%])")

#: Every result file with a measured table in EXPERIMENTS.md.
RENDERED_FILES = {
    "results/table2.json", "results/table3.json",
    "results/fig8_full.json", "results/fig9_full.json",
    "results/fig10_full.json", "results/fig11_smoke.json",
    "results/fig12_full.json", "results/ablations_full.json",
}


def experiments_sections():
    """EXPERIMENTS.md split at its ``## `` headings: (heading, body)."""
    text = EXPERIMENTS_MD.read_text()
    parts = re.split(r"^## (.*)$", text, flags=re.MULTILINE)
    return list(zip(parts[1::2], parts[2::2]))


def rendered_blocks():
    """(result file, block text) for every render block of EXPERIMENTS.md."""
    return RENDER_BLOCK.findall(EXPERIMENTS_MD.read_text())


def test_every_measured_table_is_rendered():
    assert {path for path, _ in rendered_blocks()} == RENDERED_FILES


@pytest.mark.parametrize("path,block", [
    pytest.param(path, block, id=pathlib.Path(path).stem)
    for path, block in rendered_blocks()])
def test_rendered_block_matches_its_file(path, block):
    results = load(ROOT / path)
    module = importlib.import_module(
        f"repro.experiments.{results['experiment']}")
    # Trailing blanks of the aligned columns are not kept in the file.
    expected = "\n".join(
        line.rstrip() for line in module.render(results).splitlines())
    assert block == expected, (
        f"EXPERIMENTS.md's block for {path} is stale; replace it with:\n"
        f"{expected}")


@pytest.mark.parametrize("heading,body", [
    pytest.param(heading, body, id=heading.split(" —")[0])
    for heading, body in experiments_sections()
    if RENDER_BLOCK.search(body)])
def test_prose_quotes_only_rendered_numbers(heading, body):
    rendered = " ".join(block for _, block in RENDER_BLOCK.findall(body))
    shown = set(re.findall(r"\d+(?:\.\d+)?", rendered))
    prose = RENDER_BLOCK.sub("", body)
    missing = [n for n in QUOTED_NUMBER.findall(prose) if n not in shown]
    assert not missing, (heading, missing)
