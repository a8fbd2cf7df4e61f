"""Unified command-line interface.

``python -m repro.cli <command>`` (or the installed ``shadow-repro``
script) bundles the common flows:

* ``run``       -- simulate a workload under a chosen mitigation
* ``attack``    -- drive a Row Hammer pattern and report flips
* ``security``  -- evaluate the Appendix XI bounds for a configuration
* ``experiment``-- run a paper table/figure by name, print and save it
* ``redteam``   -- replay the adversary suite against every scheme
* ``templating``-- templating campaign (static vs SHADOW)
* ``bench``     -- pinned scheduler benchmarks
* ``stats``     -- run a workload with metrics on and print the summary
* ``trace``     -- export a run as a Chrome/Perfetto or JSONL trace
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.rowhammer.templating import TemplatingCampaign
from repro.sim import System, SystemConfig
from repro.spec import scheme_spec, workload_spec
from repro.spec.registry import SCHEMES, WORKLOADS, UnknownNameError
from repro.utils.logsetup import setup_logging
from repro.version import __version__


def cli_scheme_names() -> List[str]:
    """Registered schemes the CLI can build from ``--hcnt`` alone."""
    return sorted(name for name in SCHEMES.names()
                  if SCHEMES.accepts(name, "hcnt"))


def make_scheme(name: str, hcnt: int):
    """Instantiate a mitigation by registry name at a threshold.

    Builds through the central scheme registry -- the CLI constructs a
    scheme exactly as a cached experiment job does -- passing ``hcnt``
    only to factories that take it.
    """
    try:
        if not SCHEMES.accepts(name, "hcnt"):
            raise SystemExit(
                f"scheme {name!r} needs parameters beyond --hcnt; "
                f"runnable schemes: {cli_scheme_names()}")
        params = SCHEMES.buildable_params(name, {"hcnt": hcnt})
        return scheme_spec(name, **params).build()
    except UnknownNameError as exc:
        raise SystemExit(str(exc)) from None


def resolve_profiles(workload: str, threads: int):
    """Map a CLI workload name to the thread profile list.

    ``workload`` is either a registered workload kind buildable from
    ``--threads`` alone (mix-high, mix-blend, stream, ...) or a SPEC
    application name; unknown names get a did-you-mean error.
    """
    try:
        if workload in WORKLOADS and WORKLOADS.accepts(workload,
                                                       "threads"):
            params = WORKLOADS.buildable_params(workload,
                                                {"threads": threads})
            return list(workload_spec(workload, **params).build())
        return list(workload_spec("spec", app=workload,
                                  threads=threads).build())
    except (UnknownNameError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def run_experiment(args, save_as: str, run: Callable[..., Dict],
                   render: Optional[Callable[[Dict], str]] = None) -> int:
    """The one path every experiment runs, renders and saves through.

    Builds the engine from the shared engine flags, calls
    ``run(engine)``, lists any failed jobs, prints ``render(results)``
    only when none failed (a keep-going run has holes in its series),
    then the engine summary, and saves ``results/<save_as>.json``.
    Returns the exit code: 1 if any job failed.
    """
    from repro.experiments.engine import Engine
    from repro.experiments.report import report_failures, save_results

    engine = Engine(jobs=args.jobs, use_cache=not args.no_cache,
                    retries=args.retries, job_timeout=args.job_timeout,
                    keep_going=args.keep_going)
    results = run(engine)
    if not report_failures(engine) and render is not None:
        print(render(results))
    print("engine:", engine.stats.summary())
    print("saved:", save_results(save_as, results))
    return 1 if engine.failures else 0


def cmd_run(args) -> int:
    """Handle ``shadow-repro run``."""
    if args.spec:
        import json

        from repro.experiments.driver import run_spec
        from repro.spec import ExperimentSpec

        with open(args.spec) as handle:
            spec = ExperimentSpec.from_dict(json.load(handle))
        print(f"experiment={spec.name} fidelity={spec.fidelity} "
              f"points={len(spec.points)}")
        return run_experiment(
            args, f"{spec.name}_{spec.fidelity}",
            lambda engine: run_spec(spec, engine=engine))
    profiles = resolve_profiles(args.workload, args.threads)
    mitigation = make_scheme(args.scheme, args.hcnt)
    config = SystemConfig(requests_per_thread=args.requests,
                          seed=args.seed)
    result = System(profiles, mitigation, config=config).run()
    print(f"workload={args.workload} threads={args.threads} "
          f"scheme={result.mitigation_name}")
    print(f"cycles={result.cycles} requests={result.requests_issued} "
          f"acts={result.stats.acts} row_hits={result.stats.row_hits} "
          f"refreshes={result.refreshes} rfms={result.rfms}")
    return 0


def summary_lines(s) -> List[str]:
    """Human-readable lines for an observability summary
    (:func:`repro.obs.collect_summary`).  Blocks added after a summary
    was cached (``drain``) are printed only when present."""
    cache = s["candidate_cache"]
    lines = [
        f"row-hit rate: {s['row_hit_rate']:.2%} "
        f"({s['row_hits']} hits / {s['row_misses']} misses / "
        f"{s['row_conflicts']} conflicts)",
        f"commands: acts={s['acts']} reads={s['reads']} "
        f"writes={s['writes']} refreshes={s['refreshes']} "
        f"rfms={s['rfms']}",
        f"candidate cache: {cache['hits']}/{cache['evals']} hits "
        f"({cache['hit_rate']:.2%}), {cache['recomputes']} recomputes, "
        f"{cache['pruned']} pruned, "
        f"{cache['translation_invalidations']} translation "
        f"invalidations, {cache['reindexes']} reindexes",
    ]
    drain = s.get("drain")
    if drain is not None:
        lines.append(f"drains: {drain['calls']} calls, {drain['empty']} "
                     f"issued nothing, {drain['lookaheads']} look-ahead "
                     f"advances")
    raa = f"raa: {s['raa_crossings']} threshold crossings"
    if "raa" in s:
        raa += (f", raaimt={s['raa']['raaimt']} "
                f"rfms_issued={s['raa']['rfms_issued']} "
                f"due_banks={s['raa']['due_banks']} "
                f"max_count={s['raa']['max_count']}")
    else:
        raa += " (no RFM interface for this scheme)"
    lines.append(raa)
    for ch, entry in enumerate(s["channels"]):
        lines.append(f"channel {ch}: commands={entry['commands']} "
                     f"data_busy={entry['data_busy_cycles']} "
                     f"blocked={entry['blocked_cycles']}")
    return lines


def cmd_stats(args) -> int:
    """Handle ``shadow-repro stats``: a run with full metrics on."""
    from repro.obs import Observability

    profiles = resolve_profiles(args.workload, args.threads)
    mitigation = make_scheme(args.scheme, args.hcnt)
    config = SystemConfig(requests_per_thread=args.requests,
                          seed=args.seed)
    obs = Observability(metrics=True,
                        sample_interval=args.sample_interval)
    result = System(profiles, mitigation, config=config, obs=obs).run()
    obs.close()
    s = obs.summary
    print(f"workload={args.workload} threads={args.threads} "
          f"scheme={result.mitigation_name} cycles={result.cycles}")
    print("\n".join(summary_lines(s)))
    if args.sample_interval:
        print(f"snapshots: {s['snapshots']} "
              f"(every {args.sample_interval} cycles)")
    if args.json:
        import json as _json
        print(_json.dumps(s, indent=2, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    """Handle ``shadow-repro trace``: export a run's event trace."""
    from repro.obs import Observability

    profiles = resolve_profiles(args.workload, args.threads)
    mitigation = make_scheme(args.scheme, args.hcnt)
    config = SystemConfig(requests_per_thread=args.requests,
                          seed=args.seed)
    if args.format == "chrome":
        obs = Observability.to_chrome(
            args.out, sample_interval=args.sample_interval)
    else:
        obs = Observability.to_jsonl(
            args.out, sample_interval=args.sample_interval)
    result = System(profiles, mitigation, config=config, obs=obs).run()
    obs.close()
    print(f"workload={args.workload} scheme={result.mitigation_name} "
          f"cycles={result.cycles}")
    print(f"wrote {obs.sink.events_written} events to {args.out} "
          f"({args.format})")
    if args.format == "chrome":
        print("open in ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_security(args) -> int:
    """Handle ``shadow-repro security``."""
    from repro.analysis.security import SECURITY_MODELS

    model = SECURITY_MODELS.resolve(args.scheme)
    r = model(args.hcnt, raaimt=args.raaimt)
    raaimt = int(r.get("raaimt", args.raaimt or 0))
    print(f"{args.scheme}: Hcnt={args.hcnt} RAAIMT={raaimt}: "
          f"P(bit-flip per rank-year) = {r['overall']:.3e}")
    for key in sorted(r):
        if key in ("overall", "raaimt"):
            continue
        print(f"  {key}: {r[key]:.3e}")
    print("secure (<1%/rank-year):", r["overall"] < 0.01)
    return 0


def cmd_attack(args) -> int:
    """Handle ``shadow-repro attack`` (exit 1 on a bit-flip)."""
    from repro.analysis.montecarlo import simulate_attack
    from repro.dram.subarray import SubarrayLayout
    from repro.rowhammer.adversary import (
        ScenarioIAttacker, ScenarioIIAttacker)
    from repro.utils.rng import SystemRng

    layout = SubarrayLayout(subarrays_per_bank=2,
                            rows_per_subarray=args.rows)
    if args.scenario == 1:
        attacker = ScenarioIAttacker(layout, 0, SystemRng(args.seed))
    else:
        attacker = ScenarioIIAttacker(layout, 0, args.aggressors,
                                      SystemRng(args.seed))
    result = simulate_attack(attacker, layout, hcnt=args.hcnt,
                             raaimt=args.raaimt, intervals=args.intervals,
                             shuffle=not args.no_shuffle)
    print(f"scenario={args.scenario} hcnt={args.hcnt} "
          f"raaimt={args.raaimt} shuffle={not args.no_shuffle}")
    print(f"flipped={result.flipped} acts={result.total_acts} "
          f"max_disturbance={result.max_disturbance:.1f}")
    return 1 if result.flipped else 0


def cmd_templating(args) -> int:
    """Handle ``shadow-repro templating``."""
    for label, shadow in (("static", False), ("shadow", True)):
        report = TemplatingCampaign(shadow=shadow, seed=args.seed).run()
        print(f"{label}: templates={report.templates_found} "
              f"reuse_rate={report.reuse_rate:.0%}")
    return 0


def cmd_bench(args) -> int:
    """Handle ``shadow-repro bench`` (exit 1 on a baseline regression)."""
    from repro.bench import (
        check_overhead, check_regression, load_report, run_bench,
        run_overhead, write_report)

    names = args.profiles or None
    variant = "quick" if args.quick else "full"

    if args.fault_overhead:
        from repro.bench import run_fault_overhead
        try:
            overhead = run_fault_overhead(names=names, quick=args.quick,
                                          repeats=args.repeats,
                                          retry_over=args.max_fault_overhead)
        except ValueError as exc:
            raise SystemExit(str(exc))
        failures = check_overhead(overhead, args.max_fault_overhead)
        if failures:
            for message in failures:
                print(f"OVERHEAD: {message}", file=sys.stderr)
            return 1
        print(f"fault-injection overhead within "
              f"{args.max_fault_overhead:.0%} on every profile")
        return 0

    if args.overhead:
        try:
            overhead = run_overhead(names=names, quick=args.quick,
                                    repeats=args.repeats,
                                    trace_dir=args.trace_dir,
                                    retry_over=args.max_overhead)
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.trace_dir:
            print(f"traces written under {args.trace_dir}")
        failures = check_overhead(overhead, args.max_overhead)
        if failures:
            for message in failures:
                print(f"OVERHEAD: {message}", file=sys.stderr)
            return 1
        print(f"instrumentation overhead within {args.max_overhead:.0%} "
              f"on every profile")
        return 0

    obs_factory = None
    if args.obs:
        from repro.obs import Observability
        if args.trace_dir:
            from repro.bench.harness import _trace_obs_factory
            # One factory per profile needs per-name paths; simplest is
            # to run profiles individually below, so fall back to the
            # in-memory sink when benching multiple profiles at once.
            if names is not None and len(names) == 1:
                obs_factory = _trace_obs_factory(args.trace_dir, names[0])
            else:
                raise SystemExit("--trace-dir with --obs needs exactly "
                                 "one profile via --profiles (use "
                                 "--overhead for the full set)")
        else:
            def obs_factory():
                return Observability.in_memory(sample_interval=10_000)

    try:
        results = run_bench(names=names, quick=args.quick,
                            repeats=args.repeats,
                            obs_factory=obs_factory,
                            keep_going=args.keep_going)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.out:
        write_report(args.out, variant, results)
        print(f"wrote {variant} results to {args.out}")
    if args.baseline:
        baseline = load_report(args.baseline)
        failures = check_regression(results, baseline, variant,
                                    args.max_regression)
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline} "
              f"(threshold {args.max_regression:.0%})")
    errored = sorted(n for n, e in results.items() if "error" in e)
    if errored:
        print(f"bench profiles failed: {', '.join(errored)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_redteam(args) -> int:
    """Handle ``shadow-repro redteam`` (adversary suite x scheme zoo)."""
    from repro.experiments import redteam
    return run_experiment(
        args, f"redteam_{args.fidelity}",
        lambda engine: redteam.run(
            args.fidelity, engine=engine, hcnt=args.hcnt,
            policy=args.policy, seed=args.seed,
            schemes=args.schemes or None, attacks=args.attacks or None),
        redteam.render)


#: Every ``experiment`` name: a module in :mod:`repro.experiments` with
#: ``spec``, ``run`` and ``render``.
EXPERIMENTS = ("table2", "table3", "fig8", "fig9", "fig10", "fig11",
               "fig12", "ablations", "extended", "redteam")

#: Closed-form tables: no engine jobs, so no engine flags, and saved
#: without a fidelity suffix.
ANALYTIC_EXPERIMENTS = frozenset(["table2", "table3"])


def cmd_experiment(args) -> int:
    """Handle ``shadow-repro experiment <name>``."""
    import importlib
    module = importlib.import_module(f"repro.experiments.{args.name}")
    if args.dump_spec:
        import json
        if not hasattr(module, "spec"):
            raise SystemExit(
                f"{args.name} does not define a declarative spec")
        print(json.dumps(module.spec(args.fidelity).to_dict(), indent=2,
                         sort_keys=True))
        return 0
    save_as = f"{args.name}_{args.fidelity}"
    if args.name in ANALYTIC_EXPERIMENTS:
        if (args.jobs != 1 or args.no_cache or args.retries
                or args.job_timeout is not None or args.keep_going):
            raise SystemExit(
                f"--jobs/--no-cache/--retries/--job-timeout/--keep-going "
                f"only apply to "
                f"{sorted(set(EXPERIMENTS) - ANALYTIC_EXPERIMENTS)}")
        save_as = args.name
    return run_experiment(
        args, save_as,
        lambda engine: module.run(args.fidelity, engine=engine),
        module.render)


def _add_engine_flags(parser, scope: str) -> None:
    """The experiment engine's flags, shared by run/experiment/redteam."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help=f"worker processes {scope} (default: 1, "
                             f"run inline)")
    parser.add_argument("--no-cache", action="store_true",
                        help=f"bypass the persistent result cache "
                             f"{scope}")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help=f"retry each failing job up to N times with "
                             f"exponential backoff {scope} (default: 0)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help=f"kill any single job running longer than "
                             f"this {scope} (worker pools only)")
    parser.add_argument("--keep-going", action="store_true",
                        help=f"record failed jobs and finish with partial "
                             f"results plus a failure report {scope} "
                             f"(default: fail fast)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="shadow-repro",
        description="SHADOW (HPCA 2023) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        choices=["debug", "info", "warning", "error",
                                 "critical"],
                        help="configure stdlib logging at this level")
    sub = parser.add_subparsers(dest="command", required=True)

    scheme_names = cli_scheme_names()

    from repro.analysis.security import SECURITY_MODELS
    security_model_names = SECURITY_MODELS.names()

    run_p = sub.add_parser(
        "run", help="simulate a workload (or a serialized spec)")
    run_p.add_argument("--workload", default="mcf")
    run_p.add_argument("--scheme", default="shadow",
                       choices=scheme_names)
    run_p.add_argument("--hcnt", type=int, default=4096)
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument("--requests", type=int, default=2000)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--spec", metavar="PATH",
                       help="run an ExperimentSpec JSON file through the "
                            "generic driver instead (see 'experiment "
                            "--dump-spec')")
    _add_engine_flags(run_p, "for --spec runs")
    run_p.set_defaults(func=cmd_run)

    stats_p = sub.add_parser(
        "stats", help="simulate with metrics on and print the summary")
    stats_p.add_argument("--workload", default="mcf")
    stats_p.add_argument("--scheme", default="shadow",
                         choices=scheme_names)
    stats_p.add_argument("--hcnt", type=int, default=4096)
    stats_p.add_argument("--threads", type=int, default=1)
    stats_p.add_argument("--requests", type=int, default=2000)
    stats_p.add_argument("--seed", type=int, default=1)
    stats_p.add_argument("--sample-interval", type=int, default=0,
                         metavar="CYCLES",
                         help="periodic snapshots every N cycles "
                              "(default: off)")
    stats_p.add_argument("--json", action="store_true",
                         help="also dump the full summary as JSON")
    stats_p.set_defaults(func=cmd_stats)

    trace_p = sub.add_parser(
        "trace", help="export a run as a Chrome/Perfetto or JSONL trace")
    trace_p.add_argument("--workload", default="mcf")
    trace_p.add_argument("--scheme", default="shadow",
                         choices=scheme_names)
    trace_p.add_argument("--hcnt", type=int, default=4096)
    trace_p.add_argument("--threads", type=int, default=1)
    trace_p.add_argument("--requests", type=int, default=2000)
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--out", default="shadow-repro.trace.json",
                         metavar="PATH",
                         help="output file (default: "
                              "shadow-repro.trace.json)")
    trace_p.add_argument("--format", default="chrome",
                         choices=["chrome", "jsonl"],
                         help="chrome = ui.perfetto.dev trace-event JSON; "
                              "jsonl = line-per-event stream")
    trace_p.add_argument("--sample-interval", type=int, default=10_000,
                         metavar="CYCLES",
                         help="counter-track snapshots every N cycles "
                              "(0: off; default 10000)")
    trace_p.set_defaults(func=cmd_trace)

    sec_p = sub.add_parser("security", help="per-scheme security bounds")
    sec_p.add_argument("--scheme", default="shadow",
                       choices=security_model_names,
                       help="security model (default: shadow, the "
                            "Appendix XI three-scenario analysis)")
    sec_p.add_argument("--hcnt", type=int, default=4096)
    sec_p.add_argument("--raaimt", type=int, default=None,
                       help="mitigation cadence (default: the scheme's "
                            "own secure derivation for --hcnt)")
    sec_p.set_defaults(func=cmd_security)

    atk_p = sub.add_parser("attack", help="Monte Carlo adversary")
    atk_p.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    atk_p.add_argument("--hcnt", type=int, default=64)
    atk_p.add_argument("--raaimt", type=int, default=16)
    atk_p.add_argument("--rows", type=int, default=32)
    atk_p.add_argument("--aggressors", type=int, default=4)
    atk_p.add_argument("--intervals", type=int, default=200)
    atk_p.add_argument("--seed", type=int, default=1)
    atk_p.add_argument("--no-shuffle", action="store_true")
    atk_p.set_defaults(func=cmd_attack)

    tmpl_p = sub.add_parser("templating", help="templating campaign")
    tmpl_p.add_argument("--seed", type=int, default=1)
    tmpl_p.set_defaults(func=cmd_templating)

    exp_p = sub.add_parser(
        "experiment", help="run, print and save a paper table/figure")
    exp_p.add_argument("name", choices=EXPERIMENTS)
    exp_p.add_argument("fidelity", nargs="?", default="full",
                       choices=["smoke", "full"],
                       help="run scale, also for --dump-spec "
                            "(default: full)")
    _add_engine_flags(exp_p, "for engine-backed experiments")
    exp_p.add_argument("--dump-spec", action="store_true",
                       help="print the experiment's ExperimentSpec as JSON "
                            "instead of running it (feed to 'run --spec')")
    exp_p.set_defaults(func=cmd_experiment)

    bench_p = sub.add_parser(
        "bench", help="pinned scheduler benchmarks")
    bench_p.add_argument("--quick", action="store_true",
                         help="shortened CI variant of each profile")
    bench_p.add_argument("--repeats", type=int, default=1, metavar="N",
                         help="take the best wall time of N runs")
    bench_p.add_argument("--profiles", nargs="*", metavar="NAME",
                         help="subset of profiles (default: all)")
    bench_p.add_argument("--out", metavar="PATH",
                         help="merge results into this report JSON")
    bench_p.add_argument("--baseline", metavar="PATH",
                         help="compare against a committed report")
    bench_p.add_argument("--max-regression", type=float, default=0.30,
                         metavar="FRAC",
                         help="allowed cycles/s drop vs baseline "
                              "(default 0.30)")
    bench_p.add_argument("--keep-going", action="store_true",
                         help="a profile that fails to run is recorded "
                              "as an error entry instead of aborting "
                              "the whole bench sweep")
    bench_p.add_argument("--obs", action="store_true",
                         help="run with full observability on (metrics + "
                              "trace + sampler)")
    bench_p.add_argument("--trace-dir", metavar="DIR",
                         help="write Chrome traces of observability-on "
                              "runs under this directory")
    bench_p.add_argument("--overhead", action="store_true",
                         help="measure instrumentation overhead: run each "
                              "profile off and on, compare wall times")
    bench_p.add_argument("--max-overhead", type=float, default=0.15,
                         metavar="FRAC",
                         help="allowed on-vs-off slowdown with --overhead "
                              "(default 0.15)")
    bench_p.add_argument("--fault-overhead", action="store_true",
                         help="measure fault-injection overhead: run each "
                              "profile with and without an in-loop "
                              "injector, compare wall times")
    bench_p.add_argument("--max-fault-overhead", type=float, default=0.20,
                         metavar="FRAC",
                         help="allowed injector-on slowdown with "
                              "--fault-overhead (default 0.20)")
    bench_p.set_defaults(func=cmd_bench)

    from repro.experiments.redteam import FULL_ATTACKS
    from repro.spec.registry import FAULT_POLICIES

    redteam_p = sub.add_parser(
        "redteam", help="replay the adversary suite against every scheme "
                        "with in-loop fault injection")
    redteam_p.add_argument("fidelity", nargs="?", default="smoke",
                           choices=["smoke", "full"],
                           help="smoke: the none-vs-shadow discrimination "
                                "pair; full: the whole registry zoo "
                                "(default: smoke)")
    redteam_p.add_argument("--hcnt", type=int, default=None,
                           help="hammer-count threshold "
                                "(default: 1024 smoke / 4096 full)")
    redteam_p.add_argument("--policy", default="retire",
                           choices=FAULT_POLICIES.names(),
                           help="degradation policy on detected-"
                                "uncorrectable errors (default: retire)")
    redteam_p.add_argument("--seed", type=int, default=1,
                           help="trace and injection seed (default: 1)")
    redteam_p.add_argument("--schemes", nargs="*", metavar="SCHEME",
                           help="restrict to these schemes")
    redteam_p.add_argument("--attacks", nargs="*", choices=FULL_ATTACKS,
                           metavar="ATTACK",
                           help=f"restrict to these attacks (choices: "
                                f"{', '.join(FULL_ATTACKS)})")
    _add_engine_flags(redteam_p, "for the attack grid")
    redteam_p.set_defaults(func=cmd_redteam)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        setup_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
