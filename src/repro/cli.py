"""Command-line interface: regenerate the paper's artifacts from a shell.

::

    python -m repro table1                  # dataset catalog
    python -m repro fig1                    # framework stage traces
    python -m repro table2 [--exec-records N] [--seed S]
    python -m repro table3 [--exec-records N] [--seed S]
    python -m repro headlines               # tables 2+3 + speedup claims
    python -m repro run taxi-nycb SpatialSpark EC2-10
    python -m repro report [--out FILE]     # paper-vs-ours markdown
    python -m repro calibrate               # refit the cost constants
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# build_parser is the documented embedding surface for driving the CLI
# programmatically (tests exercise it directly), even though nothing in
# src/repro imports it.
__all__ = ["main", "build_parser"]  # repro: noqa[API002]


def _add_worker_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1,
                   help="task-execution workers (1 = serial)")
    p.add_argument("--backend", default=None,
                   choices=("serial", "process"),
                   help="force a task execution backend "
                        "(default: auto from --workers)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    from .experiments.runner import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Spatial Join Query Processing in Cloud' "
            "(You, Zhang, Gruenwald, ICPP 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (dataset sizes)")
    sub.add_parser("fig1", help="print the Fig.-1 framework stage traces")

    for name, help_text in (
        ("table2", "regenerate Table 2 (full datasets, 4 configs)"),
        ("table3", "regenerate Table 3 (sample datasets, breakdowns)"),
        ("headlines", "regenerate both tables plus the speedup claims"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--exec-records", type=int, default=None,
                       help="execution-scale records per dataset")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name != "headlines":
            _add_worker_args(p)

    run = sub.add_parser("run", help="run one experiment cell")
    run.add_argument("experiment", help="e.g. taxi-nycb")
    run.add_argument("system", help="HadoopGIS | SpatialHadoop | SpatialSpark")
    run.add_argument("config", nargs="?", default="WS",
                     help="WS | EC2-10 | EC2-8 | EC2-6 | EC2-<n>")
    run.add_argument("--exec-records", type=int, default=2500)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--explain", action="store_true",
                     help="print the per-phase cost decomposition")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record a span tree of the run and write it as "
                          "Chrome trace-event JSON (open in "
                          "https://ui.perfetto.dev)")
    run.add_argument("--trace-tree", action="store_true",
                     help="record a span tree and print it as text")
    run.add_argument("--skew", action="store_true",
                     help="record a span tree and print the per-phase "
                          "task-skew report (straggler ratios, hottest "
                          "partitions)")
    _add_worker_args(run)

    validate = sub.add_parser(
        "validate", help="check all systems against brute-force joins"
    )
    validate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    validate.add_argument("--size", type=int, default=400)

    report = sub.add_parser(
        "report", help="generate the paper-vs-ours markdown report"
    )
    report.add_argument("--out", default=None, help="write to a file")
    report.add_argument("--exec-records", type=int, default=None)
    report.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sub.add_parser("calibrate", help="refit the cost-model constants "
                                     "against the paper's timings")

    plan = sub.add_parser(
        "plan",
        help="rank candidate query plans with the cost-based planner "
             "(estimates only, nothing executes)",
    )
    plan.add_argument("--system", default=None,
                      help="HadoopGIS | SpatialHadoop | SpatialSpark "
                           "(default: rank all three)")
    plan.add_argument("--cluster", default="WS",
                      help="WS | EC2-10 | EC2-<n> (default: WS)")
    plan.add_argument("--left", default="taxi:2000", metavar="NAME:N",
                      help="left dataset spec (taxi | census | tiger | "
                           "water, default taxi:2000)")
    plan.add_argument("--right", default="census:400", metavar="NAME:N",
                      help="right dataset spec (default census:400)")
    plan.add_argument("--predicate", default="intersects",
                      help="intersects | within_distance:<d>")
    plan.add_argument("--explain", action="store_true",
                      help="print the ranked candidate table, not just "
                           "the winning plan")
    plan.add_argument("--top", type=int, default=10,
                      help="candidates to list with --explain")
    plan.add_argument("--seed", type=int, default=DEFAULT_SEED)

    service = sub.add_parser(
        "service",
        help="demo the prepared-path query service (prepare once, "
             "serve repeated joins, report per-path latency and cache "
             "statistics)",
    )
    service.add_argument("system", nargs="?", default="SpatialHadoop",
                         help="HadoopGIS | SpatialHadoop | SpatialSpark")
    service.add_argument("--size", type=int, default=500,
                         help="records per dataset")
    service.add_argument("--queries", type=int, default=8,
                         help="warm join queries to serve")
    service.add_argument("--concurrency", type=int, default=8,
                         help="query dispatch threads")
    service.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _exec_override(args) -> Optional[dict]:
    if args.exec_records is None:
        return None
    from .experiments.runner import EXPERIMENTS

    return {exp: args.exec_records for exp in EXPERIMENTS}


def _cmd_table1(_args) -> int:
    from .experiments import table1

    print(table1())
    return 0


def _cmd_fig1(_args) -> int:
    from .experiments import fig1

    print(fig1())
    return 0


def _cmd_table2(args) -> int:
    from .experiments import table2

    print(table2(exec_records=_exec_override(args), seed=args.seed,
                 workers=args.workers, backend=args.backend).render())
    return 0


def _cmd_table3(args) -> int:
    from .experiments import table3

    print(table3(exec_records=_exec_override(args), seed=args.seed,
                 workers=args.workers, backend=args.backend).render())
    return 0


def _cmd_headlines(args) -> int:
    from .experiments import headline_comparisons, table2, table3

    t2 = table2(exec_records=_exec_override(args), seed=args.seed)
    print(t2.render())
    print()
    t3 = table3(exec_records=_exec_override(args), seed=args.seed)
    print(t3.render())
    print(f"\n{'claim':<64}{'paper':>8}{'ours':>8}")
    for label, paper, ours in headline_comparisons(t2, t3):
        ours_text = f"{ours:.2f}x" if ours else "n/a"
        print(f"{label:<64}{paper:>7.2f}x{ours_text:>8}")
    return 0


def _cmd_run(args) -> int:
    from .experiments import run_experiment

    want_trace = bool(args.trace or args.trace_tree or args.skew)
    report = run_experiment(
        args.experiment,
        args.system,
        args.config,
        exec_records=args.exec_records,
        seed=args.seed,
        workers=args.workers,
        backend=args.backend,
        trace=want_trace,
    )
    if want_trace and report.trace is not None:
        if args.trace:
            from .trace import write_chrome_trace

            write_chrome_trace(report.trace, args.trace)
            print(f"wrote Chrome trace JSON to {args.trace} "
                  f"(open in https://ui.perfetto.dev)")
        if args.trace_tree:
            from .trace import render_tree

            print(render_tree(report.trace, min_seconds=1e-4))
            print()
        if args.skew:
            from .trace import render_skew, skew_report

            print(render_skew(skew_report(report.trace)))
            print()
    if not report.ok:
        print(f"{args.experiment} × {args.system} × {args.config}: "
              f"FAILED ({report.failure_kind})")
        print(f"  {report.failure}")
        return 1
    b = report.breakdown_seconds()
    print(f"{args.experiment} × {args.system} × {args.config}: ok")
    print(f"  result pairs (executed scale): {len(report.pairs):,}")
    print(f"  simulated seconds: IA={b['IA']:,.0f} IB={b['IB']:,.0f} "
          f"DJ={b['DJ']:,.0f} TOT={b['TOT']:,.0f}")
    if args.explain:
        from .experiments import explain_report, render_explanation

        print()
        print(render_explanation(explain_report(report)))
    return 0


def _cmd_report(args) -> int:
    from .experiments import generate_report

    text = generate_report(exec_records=_exec_override(args), seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_validate(args) -> int:
    from .experiments import run_validation

    print(f"validating all systems against brute force "
          f"(seed={args.seed}, size={args.size}):")
    results = run_validation(seed=args.seed, size=args.size, verbose_print=print)
    failed = [r for r in results if not r[2]]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_calibrate(_args) -> int:
    from .experiments.calibration import main as calibrate_main

    calibrate_main()
    return 0


def _dataset_from_spec(spec: str, seed: int):
    from .data import (
        census_blocks_batch,
        linear_water_batch,
        taxi_points_batch,
        tiger_edges_batch,
    )

    generators = {
        "taxi": taxi_points_batch,
        "census": census_blocks_batch,
        "tiger": tiger_edges_batch,
        "water": linear_water_batch,
    }
    name, _, count = spec.partition(":")
    if name not in generators:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(generators)}"
        )
    return generators[name](int(count) if count else 1000, seed=seed)


def _cmd_plan(args) -> int:
    from .data.stats import describe
    from .experiments.runner import resolve_cluster
    from .plan import PLAN_SYSTEMS, rank_plans, render_ranking

    stats_l = describe(_dataset_from_spec(args.left, args.seed))
    stats_r = describe(_dataset_from_spec(args.right, args.seed + 1))
    cluster = resolve_cluster(args.cluster)
    systems = [args.system] if args.system else list(PLAN_SYSTEMS)
    print(f"planning {args.left} ⋈ {args.right} "
          f"({args.predicate}) on {args.cluster}")
    for system in systems:
        ranked = rank_plans(
            stats_l, stats_r, args.predicate, cluster, system=system
        )
        est, best = ranked[0]
        print(f"\n{system}: {best.describe()}  "
              f"(est. {est.seconds:,.2f}s, {est.rows:,.0f} pairs)")
        if args.explain:
            print(render_ranking(ranked, top=args.top))
    return 0


def _cmd_service(args) -> int:
    import time

    from .data import census_blocks, taxi_points
    from .service import Query, SpatialQueryService
    from .api import spatial_join

    pts = taxi_points(args.size, seed=args.seed)
    polys = census_blocks(max(args.size // 8, 10), seed=args.seed + 1)

    # The demo reports *real* serving latency (like benchmarks/ does);
    # nothing below feeds the cost model's simulated seconds.
    t0 = time.perf_counter()  # repro: noqa[CLK001]
    one_shot = spatial_join(pts, polys, system=args.system, seed=args.seed)
    one_shot_s = time.perf_counter() - t0  # repro: noqa[CLK001]

    with SpatialQueryService(seed=args.seed) as svc:
        t0 = time.perf_counter()  # repro: noqa[CLK001]
        a = svc.prepare(pts, system=args.system, roles=("a",))
        b = svc.prepare(polys, system=args.system, roles=("b",))
        prepare_s = time.perf_counter() - t0  # repro: noqa[CLK001]

        queries = [Query("join", a, b)] * args.queries
        t0 = time.perf_counter()  # repro: noqa[CLK001]
        reports = svc.execute(queries, concurrency=args.concurrency)
        serve_s = time.perf_counter() - t0  # repro: noqa[CLK001]

        c = svc.counters
        print(f"service demo: {args.system}, {args.size} × {len(polys)} "
              f"records, seed={args.seed}")
        print(f"  one-shot spatial_join: {one_shot_s*1e3:8.1f} ms "
              f"({len(one_shot.pairs):,} pairs)")
        print(f"  prepare (once):        {prepare_s*1e3:8.1f} ms")
        print(f"  serve {args.queries} queries "
              f"(concurrency {args.concurrency}): {serve_s*1e3:8.1f} ms "
              f"({args.queries / serve_s:,.0f} qps)")
        match = all(r.pairs == one_shot.pairs for r in reports)
        print(f"  pairs identical to one-shot: {match}")
        print(f"  cache: {int(c['service.cache.hits'])} hits / "
              f"{int(c['service.cache.misses'])} misses / "
              f"{int(c['service.cache.evictions'])} evictions")
    return 0 if match else 1


_COMMANDS = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "headlines": _cmd_headlines,
    "run": _cmd_run,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "calibrate": _cmd_calibrate,
    "plan": _cmd_plan,
    "service": _cmd_service,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
