"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artifacts:

* ``run <kernel>`` — one benchmark on one machine, with metrics;
* ``report`` — regenerate every table and figure in one command,
  process-parallel and incrementally cached (docs/HARNESS.md); with
  ``--suite NAME [--instances FAMILY]`` it instead reports one
  registered suite x instance-family matrix (docs/WORKLOADS.md);
* ``list-suites`` — the registered suites and instance families that
  ``--suite``/``--instances`` accept (``--format json`` for a stable
  machine-readable listing);
* ``table1|table2|table3|table4`` — regenerate a table;
* ``fig6|fig7|fig8|fig9`` — regenerate a figure's data series;
* ``chaos`` — run the fault-injection recovery suite: seeded faults at
  every site type, precise-trap recovery, differential state oracle
  (docs/FAULTS.md); ``--layer pool`` instead drills the orchestration
  layer (seeded worker kills, hangs, torn cache writes) and proves the
  rendered report is byte-identical to a fault-free run;
* ``bench`` — measure simulator throughput (wall-clock and simulated
  instructions per host second) per workload and write
  ``BENCH_sim_throughput.json`` (docs/PERF.md);
* ``list`` — the benchmark suite and the machine configurations;
* ``asm <file>`` — assemble a text kernel and print its listing;
* ``lint <kernel|file.s>`` — statically verify a hand-vectorized kernel
  (``--all`` gates the whole registry, ``--format json`` emits the
  machine-readable report CI archives, ``--list-codes`` enumerates
  every diagnostic; see docs/ANALYSIS.md).  Exit status: 0 clean,
  1 findings, 2 usage error.

Simulation grids (table2/table4, the figures, report) accept
``--jobs N`` for process-parallel fan-out and ``--no-cache`` to bypass
the content-addressed result cache under ``.repro-cache/``.  ``report``
and ``bench`` additionally take ``--timeout S`` (per-cell wall-clock
budget), ``--deadline S`` (whole-grid budget; overrunning cells degrade
into Timeout failures instead of hanging) and ``--pool
{auto,serial,process}`` to force an execution backend — the fault
budget of docs/HARNESS.md's pool layer.

Everything prints the paper's published values alongside where they
exist, so the CLI doubles as a reproduction report generator.

Ctrl-C mid-grid is graceful: completed cells are kept (and cached),
unfinished ones render as FAIL rows, and the process exits 130 — the
conventional SIGINT status — so a rerun resumes from the cache instead
of restarting the sweep.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import CONFIGURATIONS
from repro.harness import figures, report, tables
from repro.harness.engine import ResultCache, default_jobs
from repro.harness.pool import PoolPolicy
from repro.harness.runner import run
from repro.workloads.registry import REGISTRY


def _engine_args(args):
    """(jobs, cache) from the shared --jobs/--no-cache flags.

    Where the command grew pool flags (report), ``--timeout``,
    ``--deadline`` and ``--pool`` become the process-wide default
    :class:`PoolPolicy`, so every grid the command runs — tables,
    figures, suite matrices — executes under the same fault budget
    without threading a policy through each generator signature.
    """
    from repro.harness import engine

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    cache = None if args.no_cache else ResultCache()
    engine.DEFAULT_POLICY = PoolPolicy(
        backend=getattr(args, "pool", None) or "auto",
        timeout=getattr(args, "timeout", None),
        deadline=getattr(args, "deadline", None))
    return jobs, cache


def _cmd_list(args) -> int:
    print("benchmarks (Table 2):")
    for name, workload in sorted(REGISTRY.items()):
        tag = " [surrogate]" if workload.surrogate else ""
        print(f"  {name:<14s} {workload.description}{tag}")
    print("\nmachines (Table 3):")
    for name in CONFIGURATIONS:
        cfg = CONFIGURATIONS[name]()
        kind = "vector" if cfg.has_vbox else "scalar"
        print(f"  {name:<9s} {cfg.core_ghz:5.2f} GHz  "
              f"{cfg.l2_bytes >> 20:2d} MB L2  "
              f"{cfg.rambus_gbs:5.1f} GB/s  ({kind})")
    return 0


def _cmd_list_suites(args) -> int:
    """Enumerate registered suites and instance families."""
    from repro.workloads.suite import list_families, list_suites

    if getattr(args, "format", "text") == "json":
        import json

        print(json.dumps({
            "suites": [
                {"name": suite.name, "title": suite.title,
                 "source": suite.source, "workloads": list(suite)}
                for suite in list_suites()
            ],
            "families": [
                {"name": family.name, "description": family.description,
                 "instances": [
                     {"name": inst.name, "config": inst.config,
                      "scale_factor": inst.scale_factor,
                      "overrides": dict(inst.overrides),
                      "apply_l2_hint": inst.apply_l2_hint}
                     for inst in family
                 ]}
                for family in list_families()
            ],
        }, indent=2, sort_keys=True))
        return 0
    print("suites (report --suite NAME):")
    for suite in list_suites():
        print(f"  {suite.name:<10s} {len(suite):>2d} workload(s)  "
              f"{suite.title}")
        if suite.source:
            print(f"  {'':<10s}    source: {suite.source}")
    print("\ninstance families (report --instances NAME):")
    for family in list_families():
        insts = ", ".join(family.instance_names)
        print(f"  {family.name:<10s} [{insts}]  {family.description}")
    return 0


def _cmd_run(args) -> int:
    kwargs = {}
    if CONFIGURATIONS[args.config]().has_vbox:
        kwargs["check"] = not args.no_check
    out = run(args.kernel, args.config, scale=args.scale, **kwargs)
    print(f"{out.kernel} on {out.config_name}: "
          f"{out.cycles:.0f} cycles ({out.seconds * 1e6:.1f} us)")
    print(f"  OPC={out.opc:.2f}  FPC={out.fpc:.2f}  MPC={out.mpc:.2f}")
    if out.streams_mbytes_per_s:
        print(f"  streams bandwidth: {out.streams_mbytes_per_s:.0f} MB/s "
              f"(raw {out.raw_mbytes_per_s:.0f})")
    if out.verified:
        print("  output verified against the numpy reference")
    return 0


def _cmd_table(args) -> int:
    if args.which == "table1":
        print(report.render_table1(tables.table1()))
    elif args.which == "table3":
        print(report.render_table3(tables.table3()))
    else:
        jobs, cache = _engine_args(args)
        if args.which == "table2":
            print(report.render_table2(
                tables.table2(quick=args.quick, jobs=jobs, cache=cache)))
        else:
            print(report.render_table4(
                tables.table4(quick=args.quick, jobs=jobs, cache=cache)))
    return 0


def _cmd_figure(args) -> int:
    quick = args.quick
    jobs, cache = _engine_args(args)
    generate = {"fig6": figures.figure6, "fig7": figures.figure7,
                "fig8": figures.figure8, "fig9": figures.figure9}
    render = {"fig6": report.render_figure6, "fig7": report.render_figure7,
              "fig8": report.render_figure8, "fig9": report.render_figure9}
    rows = generate[args.which](quick=quick, jobs=jobs, cache=cache)
    print(render[args.which](rows))
    return 0


def _cmd_report(args) -> int:
    """Regenerate every table and figure of the evaluation section."""
    if getattr(args, "profile", False):
        from repro.harness.profiling import profiled
        with profiled():
            return _report_body(args)
    return _report_body(args)


def _report_body(args) -> int:
    quick = args.quick
    jobs, cache = _engine_args(args)
    if getattr(args, "suite", None):
        return _suite_report(args.suite, args.instances, quick, jobs, cache)
    sections = [
        report.render_table1(tables.table1()),
        report.render_table2(tables.table2(quick=quick, jobs=jobs,
                                           cache=cache)),
        report.render_table3(tables.table3()),
        report.render_table4(tables.table4(quick=quick, jobs=jobs,
                                           cache=cache)),
        report.render_figure6(figures.figure6(quick=quick, jobs=jobs,
                                              cache=cache)),
        report.render_figure7(figures.figure7(quick=quick, jobs=jobs,
                                              cache=cache)),
        report.render_figure8(figures.figure8(quick=quick, jobs=jobs,
                                              cache=cache)),
        report.render_figure9(figures.figure9(quick=quick, jobs=jobs,
                                              cache=cache)),
    ]
    print("\n\n".join(sections))
    _cache_stats(cache)
    return 0


def _cache_stats(cache) -> None:
    # stderr, so cached and cold runs stay byte-identical on stdout
    if cache is not None:
        print(f"report: {cache.misses} cell(s) simulated, "
              f"{cache.hits} loaded from {cache.root}/",
              file=sys.stderr)
    else:
        print("report: cache disabled (--no-cache)", file=sys.stderr)


def _suite_report(suite_name: str, family_name: str, quick: bool,
                  jobs: int, cache) -> int:
    """``repro report --suite X --instances Y``: one matrix, rendered.

    Runs the full timing simulation with output verification for every
    cell — the generic path a new suite gets before anyone writes it a
    bespoke table/figure generator.
    """
    from repro.workloads.suite import Matrix, get_family, get_suite

    try:
        suite = get_suite(suite_name)
        family = get_family(family_name)
    except KeyError as exc:
        raise _usage_error(f"report: {exc.args[0]}")
    grid = Matrix(suite, family, quick=quick, check=True).run(
        jobs=jobs, cache=cache)
    print(report.render_matrix(suite, family, grid))
    _cache_stats(cache)
    failed = sum(1 for name in suite for inst in family
                 if getattr(grid[name][inst.name], "failed", False))
    if failed:
        print(f"report: {failed} cell(s) failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    """Run the recovery oracle over workloads (docs/FAULTS.md)."""
    if getattr(args, "profile", False):
        from repro.harness.profiling import profiled
        with profiled():
            return _chaos_body(args)
    return _chaos_body(args)


def _chaos_body(args) -> int:
    from repro.errors import ReproError
    from repro.faults import SITE_TYPES, run_recovery_oracle

    if args.layer == "pool":
        return _chaos_pool_body(args)
    sites = tuple(args.sites) if args.sites else SITE_TYPES
    for site in sites:
        if site not in SITE_TYPES:
            raise SystemExit(f"chaos: unknown site {site!r}; "
                             f"known: {', '.join(SITE_TYPES)}")
    kernels = args.kernel if args.kernel else sorted(REGISTRY)
    print(f"chaos: seed={args.seed} sites={','.join(sites)} "
          f"kernels={len(kernels)}")
    failures = 0
    for kernel in kernels:
        try:
            result = run_recovery_oracle(kernel, seed=args.seed, sites=sites,
                                         scale=args.scale)
        except (ReproError, AssertionError) as exc:
            failures += 1
            print(f"{kernel:<14s} ERROR  {type(exc).__name__}: {exc}")
            continue
        print(result.summary())
        if not result.ok:
            failures += 1
    if failures:
        print(f"\nchaos: {failures} of {len(kernels)} workload(s) failed "
              "recovery")
        return 1
    print(f"\nchaos: all {len(kernels)} workload(s) recovered to "
          "bit-identical state")
    return 0


def _chaos_pool_body(args) -> int:
    """``repro chaos --layer pool``: the orchestration-chaos gate.

    Seeded worker kills, hangs and torn cache writes against one suite
    grid; passes (exit 0) only when the rendered report is
    byte-identical to a fault-free serial run, nothing was quarantined
    and retries stayed within budget (docs/FAULTS.md).
    """
    from repro.faults.chaos_pool import run_pool_chaos_oracle

    scale = args.scale if args.scale is not None else (
        0.02 if args.quick else 0.05)
    result = run_pool_chaos_oracle(
        seed=args.seed, suite=args.suite, jobs=args.jobs,
        scale=scale, timeout=args.timeout)
    text = result.summary()
    print(text)
    if args.log:
        with open(args.log, "w") as handle:
            handle.write(text + "\n")
    return 0 if result.ok else 1


def _cmd_bench(args) -> int:
    """Benchmark simulator throughput (docs/PERF.md)."""
    from repro.harness.bench import DEFAULT_OUTPUT, main as bench_main

    out = args.out if args.out is not None else DEFAULT_OUTPUT
    if out == "-":
        out = None
    return bench_main(quick=args.quick, output=out,
                      check_against=args.check_against,
                      kernels=args.kernel, suite=args.suite,
                      timeout=args.timeout, deadline=args.deadline,
                      backend=args.pool)


def _cmd_asm(args) -> int:
    from repro.isa.assembler import assemble

    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source, name=args.file)
    print(program.listing())
    stats = program.stats()
    print(f"\n{stats.total} instructions "
          f"({stats.vector_instructions} vector, "
          f"{stats.scalar_instructions} scalar, "
          f"{stats.memory_instructions} memory, "
          f"{stats.prefetches} prefetch)")
    return 0


def _usage_error(message: str) -> SystemExit:
    """A usage problem (exit 2), as distinct from findings (exit 1)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _lint_target_program(target: str, scale):
    """Resolve a lint target: registry kernel name, or an assembly file.

    Returns ``(program, buffers)`` — declared buffer extents for
    registry kernels (enables the vmem bounds check), ``None`` for
    assembly files.  Misses exit 2 with the kernel list and, when the
    name is close to a known one, a spelling suggestion.
    """
    import os

    from repro.errors import AssemblerError
    from repro.isa.assembler import assemble

    if target in REGISTRY:
        workload = REGISTRY[target]
        instance = (workload.build_small() if scale is None
                    else workload.build(scale))
        return instance.program, instance.buffers
    if os.path.exists(target):
        with open(target) as handle:
            source = handle.read()
        try:
            return assemble(source, name=target), None
        except AssemblerError as exc:
            raise _usage_error(f"lint: {target} does not assemble: {exc}")
    import difflib

    lines = [f"lint: {target!r} is neither a registry kernel nor a file"]
    close = difflib.get_close_matches(target, sorted(REGISTRY), n=3)
    if close:
        lines.append(f"did you mean: {', '.join(close)}?")
    lines.append("known kernels: " + ", ".join(sorted(REGISTRY)))
    raise _usage_error("\n".join(lines))


def _cmd_lint_codes() -> int:
    """Print every diagnostic code with its default severity."""
    from repro.analysis import Code

    width = max(len(code.name) for code in Code)
    for code in Code:
        print(f"{code.name:<{width}s}  {str(code.default_severity):<7s}  "
              f"{code.value}")
    return 0


def _lint_json(reports) -> str:
    """Machine-readable lint report (stable fields; consumed by CI)."""
    import json

    return json.dumps({"programs": [
        {
            "program": name,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "notes": len(report.infos),
            "diagnostics": [
                {"code": d.code.name,
                 "severity": str(d.severity),
                 "pc": d.index,
                 "message": d.message,
                 "instruction": d.instruction}
                for d in report
            ],
        }
        for name, report in reports.items()
    ]}, indent=2)


def _cmd_lint(args) -> int:
    from repro.analysis import Severity, lint_registry, lint_program

    if args.list_codes:
        return _cmd_lint_codes()
    min_sev = Severity.INFO if args.verbose else Severity.WARNING
    if args.all:
        reports = lint_registry(scale=args.scale)
    elif args.target is None:
        raise _usage_error("lint: give a kernel name / .s file, --all, "
                           "or --list-codes")
    else:
        program, buffers = _lint_target_program(args.target, args.scale)
        report = lint_program(program, buffers=buffers)
        reports = {report.program_name: report}
    failed = sum(1 for report in reports.values() if report.has_errors)
    if args.format == "json":
        print(_lint_json(reports))
        return 1 if failed else 0
    for report in reports.values():
        if report.has_errors or report.warnings or args.verbose:
            print(report.format(min_severity=min_sev))
        else:
            print(report.summary())
    if failed:
        print(f"\nlint: {failed} of {len(reports)} program(s) have errors")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tarantula (ISCA 2002) reproduction harness")
    parser.add_argument("--jit", dest="jit", action="store_true",
                        default=None,
                        help="force the trace JIT on (overrides REPRO_JIT; "
                        "docs/PERF.md)")
    parser.add_argument("--no-jit", dest="jit", action="store_false",
                        help="force the trace JIT off — every command "
                        "produces byte-identical output either way")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="benchmarks and machines").set_defaults(
        fn=_cmd_list)

    p_suites = sub.add_parser(
        "list-suites", help="registered suites and instance families "
        "(docs/WORKLOADS.md)")
    p_suites.add_argument("--format", choices=("text", "json"),
                          default="text",
                          help="json: stable machine-readable listing "
                          "(suites + families with full instance fields)")
    p_suites.set_defaults(fn=_cmd_list_suites)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("kernel", choices=sorted(REGISTRY))
    p_run.add_argument("--config", default="T",
                       choices=sorted(CONFIGURATIONS))
    p_run.add_argument("--scale", type=float, default=0.5)
    p_run.add_argument("--no-check", action="store_true",
                       help="skip output verification")
    p_run.set_defaults(fn=_cmd_run)

    def add_engine_flags(p, quick_help):
        p.add_argument("--quick", action="store_true", help=quick_help)
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (0 = all cores; default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the .repro-cache/ result cache")

    def add_pool_flags(p):
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-cell wall-clock budget; an overrunning "
                       "cell is retried, then degrades into a Timeout "
                       "failure (default: none)")
        p.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="whole-grid wall-clock budget; unfinished "
                       "cells degrade into Timeout failures instead of "
                       "hanging (default: none)")
        p.add_argument("--pool", choices=("auto", "serial", "process"),
                       default="auto",
                       help="grid execution backend (default: auto — "
                       "process when --jobs > 1)")

    # table1/table3 are pure configuration arithmetic: no --quick (they
    # reject it), no simulation grid to parallelize or cache
    for which in ("table1", "table3"):
        p = sub.add_parser(which, help=f"regenerate {which} (analytic; "
                           "takes no --quick)")
        p.set_defaults(fn=_cmd_table, which=which)
    for which, quick_help in (
            ("table2", "quarter the vectorization-census scale"),
            ("table4", "quarter the bandwidth-kernel scales")):
        p = sub.add_parser(which, help=f"regenerate {which}")
        add_engine_flags(p, quick_help)
        p.set_defaults(fn=_cmd_table, which=which)

    for which in ("fig6", "fig7", "fig8", "fig9"):
        p = sub.add_parser(which, help=f"regenerate {which}")
        add_engine_flags(p, "quarter every kernel's problem scale")
        p.set_defaults(fn=_cmd_figure, which=which)

    p_report = sub.add_parser(
        "report", help="regenerate every table and figure "
        "(parallel + cached; see docs/HARNESS.md)")
    add_engine_flags(p_report, "quarter every problem scale")
    p_report.add_argument("--profile", action="store_true",
                          help="print per-component time to stderr "
                          "(docs/PERF.md)")
    p_report.add_argument("--suite", default=None, metavar="NAME",
                          help="report one registered suite instead of "
                          "the full evaluation (see list-suites)")
    p_report.add_argument("--instances", default="default", metavar="FAMILY",
                          help="instance family for --suite "
                          "(default: 'default')")
    add_pool_flags(p_report)
    p_report.set_defaults(fn=_cmd_report, jobs=0)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection recovery suite (docs/FAULTS.md)")
    p_chaos.add_argument("--seed", type=int, default=1234,
                         help="FaultPlan seed (default 1234)")
    p_chaos.add_argument("--layer", choices=("sim", "pool"),
                         default="sim",
                         help="'sim' injects architectural faults inside "
                         "the simulator; 'pool' injects orchestration "
                         "faults (worker kills, hangs, torn cache writes) "
                         "into grid execution (default: sim)")
    p_chaos.add_argument("--suite", default="table4", metavar="NAME",
                         help="suite the pool drill runs over "
                         "(default: table4; see list-suites)")
    p_chaos.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="pool-drill worker processes (default 2)")
    p_chaos.add_argument("--timeout", type=float, default=8.0, metavar="S",
                         help="pool-drill per-cell wall-clock budget "
                         "(default 8s)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="pool drill at a CI-sized problem scale")
    p_chaos.add_argument("--log", default=None, metavar="FILE",
                         help="also write the pool-drill chaos log here")
    p_chaos.add_argument("--kernel", action="append", default=None,
                         metavar="NAME", choices=sorted(REGISTRY),
                         help="restrict to one kernel (repeatable; "
                         "default: all)")
    p_chaos.add_argument("--sites", nargs="+", default=None,
                         metavar="SITE",
                         help="fault site types (default: all four)")
    p_chaos.add_argument("--scale", type=float, default=None,
                         help="problem scale (default: test-sized instance)")
    p_chaos.add_argument("--profile", action="store_true",
                         help="print per-component time to stderr "
                         "(docs/PERF.md)")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_bench = sub.add_parser(
        "bench", help="measure simulator throughput per workload "
        "(docs/PERF.md)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-sized problem scale")
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="output JSON path (default "
                         "BENCH_sim_throughput.json; '-' skips writing)")
    p_bench.add_argument("--check-against", default=None, metavar="FILE",
                         help="fail (exit 1) when the total warm "
                         "wall-clock regresses >20%% vs this baseline")
    p_bench.add_argument("--kernel", action="append", default=None,
                         metavar="NAME", choices=sorted(REGISTRY),
                         help="restrict to one kernel (repeatable)")
    p_bench.add_argument("--suite", default=None, metavar="NAME",
                         help="benchmark one registered suite "
                         "(default: tarantula; see list-suites)")
    add_pool_flags(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_asm = sub.add_parser("asm", help="assemble a text kernel")
    p_asm.add_argument("file")
    p_asm.set_defaults(fn=_cmd_asm)

    p_lint = sub.add_parser(
        "lint", help="statically verify a kernel (see docs/ANALYSIS.md)")
    p_lint.add_argument("target", nargs="?", default=None,
                        help="registry kernel name or assembly file")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registry workload")
    p_lint.add_argument("--scale", type=float, default=None,
                        help="problem scale (default: test-sized instance)")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also show info-level notes")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (json: stable fields "
                        "code/severity/pc/message per diagnostic)")
    p_lint.add_argument("--list-codes", action="store_true",
                        help="list every diagnostic code with its "
                        "default severity and exit")
    p_lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from repro import jit

    jit.set_enabled(args.jit)
    from repro.harness.engine import STATS

    try:
        code = args.fn(args)
    except KeyboardInterrupt:
        print("\ninterrupted — completed cells were kept (and cached); "
              "rerun to resume from them", file=sys.stderr)
        return 130
    if getattr(STATS, "interrupted", 0):
        # a grid caught Ctrl-C mid-flight and degraded the remaining
        # cells into FAIL rows; report the conventional SIGINT status
        print(f"interrupted — {STATS.interrupted} unfinished cell(s) "
              "rendered as FAIL; completed cells were kept (and cached)",
              file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
