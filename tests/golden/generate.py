"""Golden scheduler-equivalence scenarios and command-stream capture.

This module is the single source of truth for the golden suite: the
scenario definitions, the command-stream capture hook, and the recorded
fields all live here.  ``python tests/golden/generate.py`` (re)writes
``scheduler_golden.json`` and ``injector_golden.json`` next to it;
``tests/test_scheduler_equivalence.py`` imports this module and asserts
the current controller reproduces the recorded values *exactly* -- same
``SystemResult``, same per-bank command stream (op, row, cycle), same
mitigation-visible side effects -- and ``tests/test_injector_golden.py``
replays every scenario with a fault injector attached and asserts the
same stream plus the injector's pinned report.

The committed golden file was generated against the seed (pre-PR2)
controller, so these tests prove the incremental scheduler is
cycle-identical to the original full-recompute scheduler.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.core import Shadow, ShadowConfig
from repro.dram.device import DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.mitigations import (
    BlockHammer,
    Dapper,
    FilteredRfm,
    Graphene,
    Mint,
    Mithril,
    NoMitigation,
    Para,
    Parfm,
    RandomizedRowSwap,
)
from repro.sim import System, SystemConfig
from repro.spec import FaultSpec
from repro.utils.rng import SystemRng
from repro.workloads.trace import WorkloadProfile

GOLDEN_PATH = Path(__file__).resolve().parent / "scheduler_golden.json"
INJECTOR_GOLDEN_PATH = GOLDEN_PATH.with_name("injector_golden.json")

GEOMETRY = DramGeometry(
    channels=2, ranks_per_channel=1, banks_per_rank=8,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=64,
)

#: Hot zipf traffic concentrates ACTs so the tracker-based schemes (RRS
#: swaps, BlockHammer throttles) actually fire inside a short run.
_HOT = WorkloadProfile(
    name="golden-hot", mpki=40.0, row_buffer_locality=0.2,
    write_fraction=0.25, footprint_pages=96, zipf_alpha=1.1)
_STREAM = WorkloadProfile(
    name="golden-stream", mpki=30.0, row_buffer_locality=0.85,
    write_fraction=0.2, footprint_pages=64, sequential=True)

THREADS = [_HOT, _STREAM, _HOT]
REQUESTS_PER_THREAD = 400
SEED = 13

#: The same traffic at a twentieth of the miss rate.  A run then spans
#: about four tREFI per rank, so its stream pins the REF order, the PREs
#: that close a rank for its REF, and the REF credit to the RAA counters
#: that decides when an RFM scheme issues RFM.  The other scenarios end
#: before the first REF is due.  These two were recorded later than the
#: others, while each bank still carried its own copy of the REF window.
REFRESH_THREADS = [
    replace(_HOT, name="golden-hot-sparse", mpki=2.0),
    replace(_STREAM, name="golden-stream-sparse", mpki=2.0),
    replace(_HOT, name="golden-hot-sparse", mpki=2.0),
]
_REFRESH = "-refresh"


def make_mitigation(scheme: str):
    scheme = scheme.removesuffix(_REFRESH)
    if scheme == "none":
        return NoMitigation()
    if scheme == "shadow":
        return Shadow(ShadowConfig(raaimt=16, rng_kind="system", rng_seed=5))
    if scheme == "rrs":
        return RandomizedRowSwap.for_hcnt(12, rng=SystemRng(99))
    if scheme == "blockhammer":
        return BlockHammer.for_hcnt(16, rate_scale=64.0)
    if scheme == "graphene":
        # Threshold 2: the MC-side TRR fires constantly on hot rows.
        return Graphene(hcnt=8)
    if scheme == "mithril":
        # RAAIMT offset from parfm's 16 so the two RFM TRR schemes
        # produce distinct command cadences (stream-distinctness check).
        return Mithril(raaimt=12, table_entries=8, blast_radius=2)
    if scheme == "para":
        return Para(probability=0.05, rng=SystemRng(71))
    if scheme == "parfm":
        return Parfm(raaimt=16, rng=SystemRng(43))
    if scheme == "mint":
        return Mint(raaimt=20, rng=SystemRng(17))
    if scheme == "dapper":
        return Dapper(raaimt=10, table_entries=8, blast_radius=2)
    if scheme == "filtered":
        # In front of SHADOW, not PARFM: a filtered TRR scheme still pays
        # tRFM per window, so its command stream would equal PARFM's.
        return FilteredRfm(make_mitigation("shadow"), hazard_threshold=6)
    raise ValueError(f"unknown golden scheme {scheme!r}")


#: Scenario names: a scheme runs ``THREADS``, and a scheme with the
#: ``-refresh`` suffix runs ``REFRESH_THREADS``.  ``dapper-refresh`` is
#: the one run in which REFs wrap the refresh window through a
#: ``"ref-window"`` tracker reset.
SCHEMES = ("none", "shadow", "rrs", "blockhammer", "graphene", "mithril",
           "para", "parfm", "mint", "dapper", "filtered",
           "parfm-refresh", "shadow-refresh", "dapper-refresh")

#: The fault injector every scenario is replayed with.  ``hcnt=8`` is
#: low enough that bits flip in every scenario, so the injector's ACT,
#: outcome and refresh hooks all run; its report is pinned by digest.
FAULTS = FaultSpec(hcnt=8, seed=7)


def build_system(scheme: str, obs=None, observer=None):
    mitigation = make_mitigation(scheme)
    threads = REFRESH_THREADS if scheme.endswith(_REFRESH) else THREADS
    config = SystemConfig(geometry=GEOMETRY, seed=SEED,
                          requests_per_thread=REQUESTS_PER_THREAD)
    return System(list(threads), mitigation, observer=observer,
                  config=config, obs=obs), mitigation


# -- command-stream capture ----------------------------------------------------------

_BANK_COMMANDS = ("issue_act", "issue_pre", "issue_rd", "issue_wr",
                  "issue_rfm")


def run_captured(system, run=None, events=None):
    """Run ``system`` recording every bank command as a text event.

    Events are ``"<ch>.<rk>.<bk> <OP> [row] @<cycle>"`` in issue order;
    the digest over the joined stream is the cycle-identical fingerprint
    two scheduler implementations must share.  ``run(system)`` replaces
    ``system.run()`` when given (e.g. to drive another event loop).  The
    events are appended to ``events`` when a list is given.
    """
    from repro.dram.bank import Bank
    from repro.dram.rank import RankTiming

    addr_of = {id(bank): addr for addr, bank in system.device.banks.items()}
    if events is None:
        events = []
    originals = {}

    def make_wrapper(name, orig):
        def wrapped(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            addr = addr_of.get(id(self))
            if addr is not None:
                where = f"{addr.channel}.{addr.rank}.{addr.bank}"
                if name == "issue_act":
                    events.append(f"{where} ACT {args[0]} @{args[1]}")
                else:
                    events.append(f"{where} {name[6:].upper()} @{args[0]}")
            return out
        return wrapped

    # An all-bank REF is one ``RankTiming.issue_ref`` call per rank; it
    # records one event per bank, in bank order, as a per-bank REF would.
    issue_ref = RankTiming.issue_ref

    def wrapped_issue_ref(rank, cycle):
        out = issue_ref(rank, cycle)
        for bank in rank.banks:
            addr = addr_of.get(id(bank))
            if addr is not None:
                events.append(
                    f"{addr.channel}.{addr.rank}.{addr.bank} REF @{cycle}")
        return out

    for name in _BANK_COMMANDS:
        originals[name] = getattr(Bank, name)
        setattr(Bank, name, make_wrapper(name, originals[name]))
    RankTiming.issue_ref = wrapped_issue_ref
    try:
        result = system.run() if run is None else run(system)
    finally:
        for name, orig in originals.items():
            setattr(Bank, name, orig)
        RankTiming.issue_ref = issue_ref
    digest = hashlib.sha256("\n".join(events).encode()).hexdigest()
    return result, digest, len(events)


# -- recorded fields -----------------------------------------------------------------

def scenario_record(scheme: str) -> dict:
    system, mitigation = build_system(scheme)
    result, digest, n_events = run_captured(system)
    stats = result.stats
    record = {
        "cycles": result.cycles,
        "thread_finish_cycles": list(result.thread_finish_cycles),
        "reads_completed": result.reads_completed,
        "requests_issued": result.requests_issued,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "mitigation_name": result.mitigation_name,
        "stats": {name: getattr(stats, name) for name in vars(stats)},
        "command_stream_sha256": digest,
        "command_stream_events": n_events,
    }
    scheme = scheme.removesuffix(_REFRESH)
    if scheme == "shadow":
        record["shuffles"] = mitigation.total_shuffles()
    elif scheme == "rrs":
        record["swaps"] = mitigation.swaps
    elif scheme == "blockhammer":
        record["throttled_acts"] = mitigation.throttled_acts
        record["total_delay_cycles"] = mitigation.total_delay_cycles
    elif scheme in ("graphene", "mithril", "para", "parfm", "mint",
                    "dapper"):
        record["trr_count"] = mitigation.trr_count
    elif scheme == "filtered":
        record["rfms_filtered"] = mitigation.rfms_filtered
        record["rfms_passed"] = mitigation.rfms_passed
    return record


def injector_run(scheme: str):
    """Run ``scheme`` with a fresh ``FAULTS`` injector as its observer;
    returns ``(result, stream digest, event count, injector report)``."""
    injector = FAULTS.build()
    system, _mitigation = build_system(scheme, observer=injector)
    result, digest, n_events = run_captured(system)
    return result, digest, n_events, injector.report()


def report_digest(report: dict) -> str:
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def injector_record(scheme: str) -> dict:
    """The pinned injector outcome: the report digest, plus the counts
    a diverging run is easiest to read from."""
    _result, _digest, _n, report = injector_run(scheme)
    counts = report["counts"]
    return {
        "report_sha256": report_digest(report),
        "bits_injected": counts["bits_injected"],
        "scrub_corrected": counts["scrub_corrected"],
        "rows_flipped": report["rows_flipped"],
    }


def generate() -> dict:
    golden = {scheme: scenario_record(scheme) for scheme in SCHEMES}
    return golden


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main() -> None:
    golden = generate()
    _write(GOLDEN_PATH, golden)
    injected = {scheme: injector_record(scheme) for scheme in SCHEMES}
    _write(INJECTOR_GOLDEN_PATH, injected)
    for scheme, record in golden.items():
        print(f"{scheme:>14}: cycles={record['cycles']} "
              f"events={record['command_stream_events']} "
              f"sha={record['command_stream_sha256'][:12]} "
              f"bits={injected[scheme]['bits_injected']} "
              f"scrubbed={injected[scheme]['scrub_corrected']}")


if __name__ == "__main__":
    main()
