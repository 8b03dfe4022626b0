"""One workload process, started by run.py.

    python3 perfbench/worker.py {setup,measure,trace} WORKLOAD SEED SECONDS [--small]

The process imports crmfeas from the checkout's ``src/``, generates every
instance, set and start of the workload, and prints ``ready`` just before its
first solve. ``setup`` and ``measure`` then time ``calibrate.SETUP_CALLS``
calls of the reference computation, to measure how much the shared host slows
the process down; ``setup`` stops there. ``measure`` solves the workload in
whole rounds for SECONDS (at least one round; another only when it should
end in time), timing each solve, and after each solve runs the reference for
a quarter of the solve's time.
``trace`` solves one warm-up round, then builds fresh inputs and solves them
plainly and once more traced, timing both passes at reference speed.
The last line printed is a JSON report; answers are checked outside the
timed regions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
# numpy, and the benchmark modules that use it, are imported inside functions:
# the first import of numpy and scipy must happen in the timed `import crmfeas`.


def solve_round(order, configs, known_faults, reference=None) -> dict:
    """Every start of ``order`` with CRM, DRM and MAP in turn (as the grids do).

    With a ``calibrate.Reference``, the reference runs after every solve and
    the round reports the host's slowdown over it.

    A solve fails when it raises, stops unconverged, or is a known fault whose
    answer misses the feasibility check; any other such miss counts as wrong.
    """
    from checks import FEAS_TOL
    from workloads import METHODS

    errors = sys.modules["crmfeas.errors"]
    converged = sys.modules["crmfeas.methods"].Status.CONVERGED
    seconds = dict.fromkeys(METHODS, 0.0)
    iterations = dict.fromkeys(METHODS, 0)
    failed = wrong = 0
    if reference is not None:
        reference.reset()
    for problem, j in order:
        z0 = problem.starts[j]
        for name in METHODS:
            t = perf_counter()
            try:
                trace, error = problem.solve(configs[name], z0), None
            except (errors.FeasibilityError, ValueError) as exc:
                trace, error = None, exc
            elapsed = perf_counter() - t
            seconds[name] += elapsed
            if reference is not None:
                reference.keep_up(elapsed)
            if error is not None:
                failed += 1
                print(f"{name} solve raised {error!r}", file=sys.stderr)
                continue
            iterations[name] += trace.iterations
            if trace.status is not converged:
                failed += 1
            elif problem.residual(name, trace.final_point) > FEAS_TOL:
                if (problem.index, j, name) in known_faults:
                    failed += 1
                else:
                    wrong += 1
    return {"seconds": seconds, "iterations": iterations, "attempted": len(order) * len(METHODS),
            "failed": failed, "wrong": wrong,
            "slowdown": reference.slowdown() if reference is not None else 1.0}


def one_step_violations(problems) -> int:
    """Starts from which the CRM step is farther from the certificate than MAP or DRM."""
    from checks import crm_not_farther

    bad = 0
    for problem in problems:
        for z0 in problem.starts:
            crm, map_, drm, s = problem.one_step(z0)
            bad += not crm_not_farther(crm, map_, drm, z0, s)
    return bad


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def layer_metrics(tracer, import_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    from workloads import METHODS

    totals = tracer.totals()
    loops = ("methods.run", "product_space.run_prod")
    out = {"crmfeas.import_s": (import_s, "s")}
    for name in tracer.names:
        calls, busy = totals[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s" if name in loops else f"{name}_s"] = (busy, "s")
    ranks = tracer.basis_ranks
    out["circumcenter.basis_rank.mean"] = (sum(ranks) / len(ranks) if ranks else 0.0, "dim")
    for layer, counts in tracer.iterations.items():
        for method in METHODS:
            out[f"{layer}.iterations.{method}"] = (counts[method], "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t = perf_counter()
    import crmfeas

    import_s = perf_counter() - t
    if not crmfeas.__file__.startswith(os.path.join(ROOT, "src")):
        print(f"crmfeas was imported from {crmfeas.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads

    problems = workloads.build(args.workload, args.small)
    order = workloads.schedule(problems, args.seed)
    configs = workloads.configs()
    known_faults = workloads.KNOWN_FAULTS[args.workload]
    print("ready", flush=True)
    from calibrate import SETUP_CALLS, Reference

    reference = Reference()
    if args.mode != "trace":
        setup_slowdown = reference.measure(SETUP_CALLS)
    if args.mode == "setup":
        print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
        return 0

    report = {"machine": machine()}
    if args.mode == "measure":
        report["setup_slowdown"] = setup_slowdown
        rounds = []
        start = perf_counter()
        while True:  # whole rounds, the next one only when it should end in time
            t = perf_counter()
            rounds.append(solve_round(order, configs, known_faults, reference))
            now = perf_counter()
            if now + (now - t) > start + args.seconds:
                break
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        def timed_pass():
            """Seconds of set-up and one round, at the host's reference speed."""
            before = reference.measure(SETUP_CALLS)
            t = perf_counter()
            fresh = workloads.build(args.workload, args.small)
            rounds.append(solve_round(workloads.schedule(fresh, args.seed), configs, known_faults))
            elapsed = perf_counter() - t
            return elapsed / (0.5 * (before + reference.measure(SETUP_CALLS)))

        # a warm-up round keeps first-touch costs out of both timed passes
        rounds = [solve_round(order, configs, known_faults)]
        plain_s = timed_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = timed_pass()
        finally:
            tracer.remove()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        metrics = layer_metrics(tracer, import_s, traced_s - plain_s)
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        # the program's own counts, seen by the tracer, against the benchmark's
        seen = {m: sum(counts[m] for counts in tracer.iterations.values())
                for m in workloads.METHODS}
        report["traced_counts_match"] = seen == rounds[-1]["iterations"]
    report["rounds"] = rounds
    report["one_step_violations"] = one_step_violations(problems)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
