"""Command-line benchmark runner and ad-hoc solver.

Subcommands: ``solve <problem.json>``, ``bench soc``, ``bench poly``,
``profile <runs.csv>``. Exit codes: 0 on success, 1 on usage errors, 2 when
any run fails to converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from .errors import EmptyInput, ExhaustedRejection, ParseError, SchemaVersionMismatch
from .instances import Kind, gen_start, read_problem
from .methods import Method, SolverConfig, Status, run
from .product_space import ProductSet, restrict, run_prod


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1 (argparse default is 2, reserved for run failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-6, help="gap tolerance (default 1e-6)")
    p.add_argument("--max-iter", type=int, default=100_000, help="iteration cap")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", help="output file path")
    p.add_argument("--trace", action="store_true", help="also export per-iteration gaps")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crmfeas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[], help="solve one problem file")
    solve.add_argument("problem", help="problem JSON file")
    solve.add_argument("--method", choices=[m.value for m in Method], default="CRM")
    _add_common(solve)

    bench = sub.add_parser("bench", help="run an experiment grid")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)
    for name, help_text in (("soc", "cone ∩ affine grid"), ("poly", "polyhedral product-space grid")):
        p = bench_sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=200, help="ambient dimension")
        p.add_argument("--instances", type=int, default=100 if name == "soc" else 1)
        p.add_argument("--starts", type=int, default=10 if name == "soc" else 20)
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        _add_common(p)

    profile = sub.add_parser("profile", help="performance profile from a runs CSV")
    profile.add_argument("runs", help="CSV written by 'bench --format csv'")
    profile.add_argument("--out", help="output file path")
    profile.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _print_stats(result) -> None:
    print(f"{'method':<10} {'mean':>10} {'min':>6} {'median':>8} {'max':>6} {'failures':>9}")
    for s in result.stats:
        print(f"{s.method:<10} {s.mean:>10.3f} {s.min:>6d} {s.median:>8.1f} {s.max:>6d} {s.failures:>9d}")


def _cmd_solve(args, instance, start) -> int:
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, method=Method(args.method))
    if instance.kind is Kind.AFFINE_CONIC:
        trace = run(instance.sets[0], instance.affine, start.projected, cfg)
        point = trace.final_point
    else:
        W = ProductSet(instance.sets)
        trace = run_prod(W, start.projected, cfg)
        point = restrict(trace.final_point, instance.m)

    print(f"method={args.method} status={trace.status.value} "
          f"iterations={trace.iterations} final_gap={trace.gaps[-1]:.3e}")
    if args.out:
        if args.trace:
            record = bench_mod.RunRecord(
                instance_seed=instance.seed, start_seed=args.seed, method=args.method,
                iterations=trace.iterations, final_gap=trace.gaps[-1],
                status=trace.status.value, gaps=trace.gaps)
            bench_mod.export_traces_csv([record], args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump({
                    "method": args.method,
                    "status": trace.status.value,
                    "iterations": trace.iterations,
                    "final_gap": trace.gaps[-1],
                    "point": point.tolist(),
                }, f)
                f.write("\n")
    return 0 if trace.status is Status.CONVERGED else 2


def _cmd_bench(args) -> int:
    fn = bench_mod.bench_soc if args.experiment == "soc" else bench_mod.bench_polyhedral_prod
    result = fn(num_instances=args.instances, starts_per_instance=args.starts, n=args.n,
                tol=args.tol, max_iter=args.max_iter, base_seed=args.seed,
                jobs=args.jobs, record_gaps=args.trace)
    _print_stats(result)
    if args.out:
        bench_mod.export(result, args.format, args.out)
        if args.trace:
            bench_mod.export_traces_csv(result.records, args.out + ".traces.csv")
    failures = sum(1 for r in result.records if r.status != Status.CONVERGED.value)
    return 2 if failures else 0


def _cmd_profile(args, curves) -> int:
    if args.out:
        bench_mod.export_profile(curves, args.format, args.out)
    else:
        for c in curves:
            final = c.fraction_solved[-1] if c.fraction_solved else 0.0
            print(f"{c.method}: solved {final:.1%} within tau={c.thresholds[-1]:.3g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # reject a bad flag value, output path, grid size, problem file or runs CSV,
    # or a problem with no infeasible start to draw, before any work
    try:
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} is a directory")
        # bench --trace also writes beside --out, in the same directory
        if args.command == "bench" and args.trace and args.out \
                and os.path.isdir(args.out + ".traces.csv"):
            raise ValueError(f"--out {args.out}: its traces file {args.out}.traces.csv "
                             "is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out {args.out}: no such directory")
        if args.command == "profile":
            curves = bench_mod.profile_from_records(bench_mod.read_records_csv(args.runs))
        else:
            SolverConfig(tol=args.tol, max_iter=args.max_iter)
        if args.command == "bench":
            bench_mod.check_grid_size(args.instances, args.starts)
            if args.seed < 0:  # the seed streams need it
                raise ValueError(f"--seed must be nonnegative, got {args.seed}")
            if args.jobs < 1:
                raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
            if args.n < 2:  # the instance generators need it
                raise ValueError(f"dimension --n must be at least 2, got {args.n}")
        elif args.command == "solve":
            instance = read_problem(args.problem)
            start = gen_start(instance, args.seed, min_gap=args.tol)
    except (OSError, ValueError, ParseError, SchemaVersionMismatch, ExhaustedRejection,
            EmptyInput) as exc:
        print(f"crmfeas: error: {exc}", file=sys.stderr)
        return 1
    if args.command == "profile":
        return _cmd_profile(args, curves)
    return _cmd_solve(args, instance, start) if args.command == "solve" else _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
