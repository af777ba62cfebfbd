"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1`` .. ``table5``, ``figure2`` .. ``figure8``, ``capture``,
``whatif``
    Regenerate one experiment and print it (paper-vs-measured included).

``report``
    Regenerate everything, as ``examples/reproduce_paper.py`` does.

``reduce``
    Run the benchmark-reduction pipeline on a suite and print the
    clusters and representatives.

``predict``
    Reduce a suite and predict one target architecture, printing the
    per-application comparison and the reduction factor.

``export``
    Run Steps A-D and save the portable reduced-suite manifest
    (Section 5's "extract once, reuse by many users").

``suites``
    Show the built-in suite inventory.

``verify``
    Run the metamorphic/differential correctness harness
    (:mod:`repro.verify`) against a seeded synthetic suite and write
    the pass/fail report under ``reports/``.

``lint``
    Run the static-analysis passes (:mod:`repro.analysis.lint`) over
    the built-in suites, print a text or JSON report, persist it under
    ``reports/``, and exit non-zero on errors not suppressed by a
    ``--baseline`` file.

``transform``
    Apply dependence-proven loop rewrites (:mod:`repro.ir.rewrite`) to
    a suite's codelets, reporting every legality decision; with
    ``--stability``, re-run subsetting on the transformed suite and
    compare the reductions.

``trace``
    Render a trace file written by ``--trace-out`` as a span tree or a
    top-N summary (:mod:`repro.obs`).

Every subcommand accepts ``--trace-out FILE`` / ``--metrics-out FILE``
to export the run's deterministic span tree and metrics registry as
JSON (see ``docs/OBSERVABILITY.md``); replaying a run with the same
seed and fault plan writes byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from . import experiments
from .core.ga import GAConfig
from .core.pipeline import SubsettingConfig
from .experiments.context import ExperimentContext
from .obs import Observation, observing
from .runtime import RunHealth, RuntimeConfig
from .machine import TARGETS, Architecture, architecture_by_name
from .suites import build_nas_suite, build_nr_suite


def _build_suite(name: str, scale: float):
    return build_nas_suite(scale) if name == "nas" else build_nr_suite(scale)


def _at_least(value: str, least: int, expected: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = least - 1
    if number < least:
        raise argparse.ArgumentTypeError(
            f"must be {expected}, got {value!r}")
    return number


def _positive_int(value: str) -> int:
    return _at_least(value, 1, "an integer >= 1")


def _non_negative_int(value: str) -> int:
    return _at_least(value, 0, "an integer >= 0")


def _cluster_count(value: str):
    """``--k``: ``elbow`` or a count >= 1; the reducer clamps a count
    above the number of codelets to that number."""
    if value == "elbow":
        return value
    return _at_least(value, 1, "'elbow' or an integer >= 1")


def _scale(value: str) -> float:
    try:
        scale = float(value)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {value!r}")
    return scale


def _target(value: str) -> Architecture:
    try:
        return architecture_by_name(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _defect(value: str) -> str:
    """``verify --break``: a row of the defect table."""
    from .verify import BREAKAGES

    if value not in BREAKAGES:
        raise argparse.ArgumentTypeError(
            f"unknown defect {value!r}: choose from "
            f"{', '.join(sorted(BREAKAGES))} (see 'repro verify --list')")
    return value


#: Every flag an experiment reads; ``report`` takes them all.
_FLAGS = {
    "--samples": dict(type=_positive_int, default=200,
                      help="random clusterings per K (figure7)"),
    "--population": dict(type=_positive_int, default=GAConfig.population,
                         help="GA population (table2)"),
    "--generations": dict(type=_non_negative_int,
                          default=GAConfig.generations,
                          help="GA generations (table2)"),
    "--seed": dict(type=_non_negative_int, default=GAConfig.seed,
                   help="GA seed (table2)"),
    "--k-fixed": dict(type=_positive_int, default=14,
                      help="cluster count (table3)"),
}

#: Each experiment, in ``report`` order: the flags it reads and its
#: runner.  A runner resolves its driver when it runs, so a command
#: imports only the experiments it runs.
_EXPERIMENTS = {
    "table1": ((), lambda ctx, args: experiments.run_table1()),
    "table2": (("--population", "--generations", "--seed"),
               lambda ctx, args: experiments.run_table2(ctx, GAConfig(
                   population=args.population,
                   generations=args.generations, seed=args.seed))),
    "table3": (("--k-fixed",),
               lambda ctx, args: experiments.run_table3(ctx, k=args.k_fixed)),
    "table4": ((), lambda ctx, args: experiments.run_table4(ctx)),
    "table5": ((), lambda ctx, args: experiments.run_table5(ctx)),
    "figure2": ((), lambda ctx, args: experiments.run_figure2(ctx)),
    "figure3": ((), lambda ctx, args: experiments.run_figure3(ctx)),
    "figure4": ((), lambda ctx, args: experiments.run_figure4(ctx)),
    "figure5": ((), lambda ctx, args: experiments.run_figure5(ctx)),
    "figure6": ((), lambda ctx, args: experiments.run_figure6(ctx)),
    "figure7": (("--samples",),
                lambda ctx, args: experiments.run_figure7(
                    ctx, samples=args.samples)),
    "figure8": ((), lambda ctx, args: experiments.run_figure8(ctx)),
    "capture": ((), lambda ctx, args: experiments.run_capture_change(ctx)),
    "whatif": ((), lambda ctx, args: experiments.run_whatif(ctx)),
}


def _load_fault_plan(args):
    from .runtime import FaultPlan

    if not getattr(args, "fault_plan", None):
        return None
    try:
        return FaultPlan.load(args.fault_plan)
    except OSError as exc:
        raise SystemExit(
            f"--fault-plan: cannot read {args.fault_plan!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"--fault-plan: {args.fault_plan!r}: {exc}")


def _subsetting_config(args) -> SubsettingConfig:
    return SubsettingConfig(runtime=RuntimeConfig(
        jobs=args.jobs, cache_dir=args.cache_dir, retries=args.retries,
        fault_plan=_load_fault_plan(args)))


def _context(args) -> ExperimentContext:
    return ExperimentContext(scale=args.scale,
                             config=_subsetting_config(args))


def _finish_health(health: RunHealth, args, footer: bool) -> int:
    """Print the run-health footer if ``footer`` and persist it; non-zero
    under ``--strict`` if the run degraded (quarantines, poisoned
    cache, destroyed clusters)."""
    if footer:
        print()
        print(health.format())
    if getattr(args, "health_out", None):
        health.save(args.health_out)
        print(f"health report written to {args.health_out}")
    if args.strict and health.degraded:
        print("strict mode: degradation escalated to a failure",
              file=sys.stderr)
        return 3
    return 0


def _cmd_experiments(args) -> int:
    """One experiment, or every one of them for ``report``."""
    ctx = _context(args)
    report = args.command == "report"
    for name in (_EXPERIMENTS if report else [args.command]):
        _flags, runner = _EXPERIMENTS[name]
        print(runner(ctx, args).format())
        if report:
            print()
    # Clean stdout must not move (benchmarks/pipeline/digests.json pins
    # it), so only a degraded run prints the footer.
    health = ctx.health
    return _finish_health(health, args, health.degraded)


def _cmd_reduce(args) -> int:
    from .codelets.finder import find_codelets

    ctx = _context(args)
    suite = ctx.reducer(args.suite).suite
    print("detection:")
    for app in suite.applications:
        print(f"  {find_codelets(app).summary()}")
    reduced = ctx.reduced(args.suite, args.k)
    print(f"suite {suite.name}: {len(reduced.profiles)} measurable "
          f"codelets, elbow K={reduced.elbow}, final K={reduced.k}")
    print("\ndendrogram:")
    print(reduced.dendrogram.render(
        [p.name for p in reduced.profiles], width=36))
    if reduced.selection.ill_behaved:
        print(f"ill-behaved codelets "
              f"({len(reduced.selection.ill_behaved)}): "
              f"{', '.join(sorted(reduced.selection.ill_behaved))}")
    if reduced.quarantined:
        print(f"quarantined codelets ({len(reduced.quarantined)}): "
              f"{', '.join(sorted(reduced.quarantined))}")
    for idx, members in enumerate(reduced.selection.clusters):
        rep = reduced.representatives[idx]
        print(f"\ncluster {idx} (representative {rep}):")
        for member in members:
            marker = " *" if member == rep else ""
            print(f"  {member}{marker}")
    return _finish_health(ctx.health, args,
                          ctx.config.runtime.resilience_active)


def _cmd_predict(args) -> int:
    ctx = _context(args)
    targets = [args.target] if args.target else list(TARGETS)
    results = [(t, ctx.evaluation(args.suite, args.k, t))
               for t in targets]
    for target, result in results:
        r = result.reduction
        print(f"\n{target.name}: median codelet error "
              f"{result.median_error_pct:.2f}%, benchmarking reduction "
              f"x{r.total_factor:.1f} (invocations "
              f"x{r.invocation_factor:.1f} * clustering "
              f"x{r.clustering_factor:.1f})")
        if result.degraded_representatives:
            print(f"  degraded: representatives "
                  f"{', '.join(result.degraded_representatives)} "
                  "quarantined and reselected")
        for app in result.applications:
            print(f"  {app.app:4s} real {app.real_seconds:10.2f}s  "
                  f"predicted {app.predicted_seconds:10.2f}s  "
                  f"error {app.error_pct:6.2f}%")
    return _finish_health(ctx.health, args,
                          ctx.config.runtime.resilience_active)


def _cmd_export(args) -> int:
    from .core.persist import export_manifest

    ctx = _context(args)
    manifest = export_manifest(ctx.reduced(args.suite, args.k))
    manifest.save(args.output)
    print(f"wrote {args.output}: {len(manifest.representatives)} "
          f"representatives covering "
          f"{sum(len(c) for c in manifest.clusters)} codelets")
    return _finish_health(ctx.health, args,
                          ctx.config.runtime.resilience_active)


def _cmd_verify(args) -> int:
    from .verify import describe_registry, run_verify

    if args.list:
        print(describe_registry())
        return 0
    try:
        report = run_verify(seed=args.seed, n_apps=args.n_apps,
                            codelets_per_app=args.codelets_per_app,
                            breakage=args.breakage,
                            skip_differential=args.skip_differential)
    except ValueError as exc:       # a suite with nothing to measure
        print(f"repro verify: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    path = report.save(args.report_dir)
    print(f"\nreport written to {path}")
    return 0 if report.passed else 1


def _cmd_transform(args) -> int:
    from .ir.rewrite import (TransformReport, describe_passes,
                             parse_pass_specs, transform_suite)

    if args.list_passes:
        print(describe_passes())
        return 0
    if not args.passes:
        print("repro transform: no --pass given (see --list-passes)",
              file=sys.stderr)
        return 2
    try:
        specs = parse_pass_specs(args.passes)
    except ValueError as exc:
        print(f"repro transform: {exc}", file=sys.stderr)
        return 2
    suite = _build_suite(args.suite, args.scale)
    _transformed, records, n_kernels = transform_suite(
        suite, specs, force=args.force_unsafe)
    report = TransformReport(title=f"suite {args.suite}",
                             pipeline=specs, records=records,
                             n_kernels=n_kernels,
                             forced=args.force_unsafe)
    if args.format == "json":
        # stdout stays pure JSON so output can be piped/diffed.
        sys.stdout.write(report.serialize())
    else:
        print(report.format())
    txt_path, json_path = report.save(args.report_dir)
    if args.format == "text":
        print(f"\nreport written to {txt_path} and {json_path}")
    if args.stability:
        from .experiments import run_transform_stability

        result = run_transform_stability(
            suite, specs, config=_subsetting_config(args),
            k=args.k, force=args.force_unsafe)
        print()
        print(result.format())
        status = _finish_health(result.health, args,
                                result.health.degraded)
        if not result.memo_collision_free:
            return 1
        return status
    return 0


def _cmd_trace(args) -> int:
    from .obs.render import load_trace, render_summary, render_tree

    try:
        data = load_trace(args.file)
    except OSError as exc:
        print(f"repro trace: cannot read {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro trace: {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if args.summary:
        print(render_summary(data, top=args.top))
    else:
        print(render_tree(data))
    return 0


def _cmd_suites(args) -> int:
    from .codelets.finder import find_codelets

    for name in ("nr", "nas"):
        suite = _build_suite(name, args.scale)
        n_codelets = sum(len(a.regions()) for a in suite.applications)
        print(f"{suite.name}: {len(suite.applications)} applications, "
              f"{n_codelets} codelet regions")
        for app in suite.applications:
            report = find_codelets(app)
            print(f"  {app.name:12s} {len(app.regions()):3d} regions, "
                  f"coverage {app.codelet_coverage:.0%} — "
                  f"{report.summary()}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis.lint import (Baseline, PASS_REGISTRY, describe_passes,
                                make_suite_report)

    if args.list_passes:
        print(describe_passes())
        return 0
    disabled = tuple(args.disable)
    unknown = sorted(set(disabled) - set(PASS_REGISTRY))
    if unknown:
        print(f"repro lint: unknown passes for --disable: "
              f"{', '.join(unknown)} (registered: "
              f"{', '.join(PASS_REGISTRY)})", file=sys.stderr)
        return 2
    names = ("nr", "nas") if args.suite == "all" else (args.suite,)
    suites = [_build_suite(n, args.scale) for n in names]
    title = f"suite {args.suite}"
    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro lint: cannot load baseline "
                  f"{args.baseline}: {exc}", file=sys.stderr)
            return 2
    if args.write_baseline:
        from .analysis.lint import prune_baseline

        full = make_suite_report(title, suites, disabled=disabled)
        reason = "accepted finding (explain me: see docs/LINT.md)"
        if baseline is not None:
            # Refresh: keep the explanations of findings still
            # produced, drop stale keys, accept new findings.
            old_keys = {s.key for s in baseline.suppressions}
            bl = prune_baseline(baseline, full.diagnostics,
                                default_reason=reason)
            new_keys = {s.key for s in bl.suppressions}
            print(f"pruned {len(old_keys - new_keys)} stale "
                  f"suppressions, kept {len(old_keys & new_keys)}, "
                  f"added {len(new_keys - old_keys)}")
        else:
            bl = Baseline.from_diagnostics(full.diagnostics,
                                           reason=reason)
        path = bl.save(args.write_baseline)
        print(f"wrote {path}: {len(bl.suppressions)} suppressions "
              f"covering {len(full.diagnostics)} diagnostics")
        return 0
    report = make_suite_report(title, suites, baseline=baseline,
                               disabled=disabled)
    if args.format == "json":
        # stdout stays pure JSON so output can be piped/diffed.
        sys.stdout.write(report.serialize())
    else:
        print(report.format())
    txt_path, json_path = report.save(args.report_dir)
    if args.format == "text":
        print(f"\nreport written to {txt_path} and {json_path}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fine-grained benchmark subsetting (CGO 2014 "
                    "reproduction)")
    parser.add_argument("--scale", type=_scale, default=1.0,
                        help="suite size scale (1.0 = CLASS-B-like)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes for profiling and target "
                             "measurement (1 = serial, 0 = all cores)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed on-disk profile cache "
                             "directory (re-runs only profile what "
                             "changed)")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts per failed measurement "
                             "task before quarantine (0 = historical "
                             "fail-fast behaviour)")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON fault-injection plan (deterministic "
                             "crashes/timeouts/corruption; see "
                             "docs/RESILIENCE.md)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if the run degraded "
                             "(quarantines, poisoned cache entries, "
                             "destroyed clusters)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the run's deterministic span tree "
                             "as JSON (inspect with 'repro trace')")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the run's metrics registry "
                             "(counters/gauges/histograms) as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (flags, _runner) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"regenerate {name}")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("report", help="regenerate every experiment")
    for flag, options in _FLAGS.items():
        p.add_argument(flag, **options)
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("reduce", help="run Steps A-D on a suite")
    p.add_argument("--suite", default="nas", choices=("nas", "nr"))
    p.add_argument("--k", type=_cluster_count, default="elbow",
                   help="cluster count or 'elbow'")
    p.add_argument("--health-out", default=None, metavar="FILE",
                   help="write the deterministic RunHealth JSON report")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("predict",
                       help="reduce a suite and predict target(s)")
    p.add_argument("--suite", default="nas", choices=("nas", "nr"))
    p.add_argument("--k", type=_cluster_count, default="elbow")
    p.add_argument("--target", type=_target, default=None,
                   help="one architecture name (default: all targets)")
    p.add_argument("--health-out", default=None, metavar="FILE",
                   help="write the deterministic RunHealth JSON report")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("export",
                       help="save a portable reduced-suite manifest")
    p.add_argument("--suite", default="nas", choices=("nas", "nr"))
    p.add_argument("--k", type=_cluster_count, default="elbow")
    p.add_argument("-o", "--output", default="reduced.json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("suites", help="list the built-in suites")
    p.set_defaults(func=_cmd_suites)

    p = sub.add_parser(
        "verify",
        help="run the pipeline correctness harness (invariant registry "
             "+ differential oracle)")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="synthetic-suite seed")
    p.add_argument("--n-apps", type=_positive_int, default=3,
                   help="applications in the synthetic suite")
    p.add_argument("--codelets-per-app", type=_positive_int, default=4,
                   help="codelets per synthetic application")
    p.add_argument("--break", dest="breakage", type=_defect, default=None,
                   metavar="DEFECT",
                   help="inject a named defect to prove the matching "
                        "invariant catches it (see --list)")
    p.add_argument("--skip-differential", action="store_true",
                   help="run only the invariant registry")
    p.add_argument("--report-dir", default="reports",
                   help="where to write the text/JSON reports")
    p.add_argument("--list", action="store_true",
                   help="list invariants, differential cases and "
                        "injectable defects, then exit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "lint",
        help="run the static-analysis lint passes over the built-in "
             "suites (non-zero exit on new errors)")
    p.add_argument("--suite", default="all",
                   choices=("nas", "nr", "all"),
                   help="which built-in suite(s) to lint")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="stdout format (files under --report-dir always "
                        "get both)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppression file of accepted findings; only "
                        "new errors affect the exit status")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="write a baseline accepting every current "
                        "finding, then exit")
    p.add_argument("--disable", action="append", default=[],
                   metavar="PASS",
                   help="skip a lint pass (repeatable; see "
                        "--list-passes)")
    p.add_argument("--report-dir", default="reports",
                   help="where to write the text/JSON reports")
    p.add_argument("--list-passes", action="store_true",
                   help="list registered lint passes and their codes, "
                        "then exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "transform",
        help="apply dependence-proven loop rewrites to a suite's "
             "codelets and report every legality decision")
    p.add_argument("--suite", default="nr", choices=("nas", "nr"),
                   help="which built-in suite to transform")
    p.add_argument("--pass", dest="passes", action="append", default=[],
                   metavar="SPEC",
                   help="rewrite pipeline, e.g. tile=4,interchange,fuse "
                        "(repeatable; applied left to right)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="stdout format (files under --report-dir always "
                        "get both)")
    p.add_argument("--force-unsafe", action="store_true",
                   help="apply rewrites whose legality verdict is "
                        "ILLEGAL anyway (never structural "
                        "inapplicability); results may diverge")
    p.add_argument("--stability", action="store_true",
                   help="re-run subsetting on the transformed suite and "
                        "report representative stability + lowering-"
                        "memo audit")
    p.add_argument("--k", type=_cluster_count, default="elbow",
                   help="cluster count for --stability (or 'elbow')")
    p.add_argument("--report-dir", default="reports",
                   help="where to write the text/JSON reports")
    p.add_argument("--list-passes", action="store_true",
                   help="list registered rewrite passes, then exit")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser(
        "trace",
        help="render a --trace-out file as a span tree or summary")
    p.add_argument("file", help="trace JSON written by --trace-out")
    p.add_argument("--summary", action="store_true",
                   help="aggregate by span category and show the "
                        "top spans by modelled time instead of the "
                        "full tree")
    p.add_argument("--top", type=_positive_int, default=10, metavar="N",
                   help="rows in the --summary top-spans table")
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"-j/--jobs: must be >= 0 (0 = all cores), "
                     f"got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries: must be >= 0, got {args.retries}")
    if args.cache_dir and os.path.exists(args.cache_dir) \
            and not os.path.isdir(args.cache_dir):
        parser.error(f"--cache-dir: {args.cache_dir!r} is not a directory")
    # An unreadable/invalid plan is a usage error for every subcommand,
    # not just the ones that later build a RuntimeConfig.
    _load_fault_plan(args)
    # One observation spans the whole command: every reducer/evaluator
    # built inside args.func reports into it via active_observation().
    obs = Observation()
    with observing(obs):
        status = args.func(args)
    if args.trace_out:
        obs.tracer.save(args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        obs.metrics.save(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return status


if __name__ == "__main__":       # pragma: no cover - module execution
    sys.exit(main())
