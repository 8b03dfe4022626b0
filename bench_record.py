"""Write ``BENCH_<label>.json``: the benchmark's end-to-end metrics, the wall
time of the paper's two grids and per-layer timings, from one command.

    python3 bench_record.py --label L [--small]

The file is written beside this script, and every run uses this checkout.
For each workload the script runs ``perfbench/run.py`` as it is (seed
``SEED``, ``SECONDS`` of solving) and keeps from its report the five
end-to-end metrics, the iteration totals of a round and the machine facts.
It then times the reference grids ``bench_soc(100, 10)`` and
``bench_polyhedral_prod(1, 20)`` at ``n = 200`` with ``jobs=1`` and the base
seeds of the golden table, with BLAS on one thread. Each of ``REPEATS`` runs
of a grid is timed beside the benchmark's reference computation
(``perfbench/calibrate.py``, imported as ``perfbench/worker.py`` imports it):
the reference runs ``REFERENCE_CALLS`` calls before and after the grid, and
the mean of the two slowdowns is the repeat's slowdown. One untimed run of
the grid and of the reference comes first. The file keeps the
raw wall times and their median, the slowdowns, and the median of the times
at reference speed (each divided by its slowdown), with the iteration totals
per method, which must repeat exactly. A speed-up that changes an iteration
count is a change of behaviour, so compare the counts of two files before
their times.

Caveat: the reference's own speed depends on the glibc malloc threshold. Its
vectors of 34,200 floats lie above glibc's initial 128 KiB mmap threshold,
and freeing a larger block raises that threshold, so the reference runs
faster in a process that has freed large blocks (the grids do) than in a
fresh one. Times at reference speed compare two files recorded the same way;
they are not absolute.

The per-layer section holds timeit medians, per call, of the calls one
iteration of a benchmark run makes, on every instance of the benchmark's
workloads (``perfbench/workloads.py``) at its first start:
``ProductSet._projection_sums`` at the block mean, into a workspace built
once as a run builds it, the DRM-prod measurement (``_TwoSets.measure``)
and one whole DRM-prod iteration, that measurement and its step
(``mixed.drm_step``), one whole MAP-prod iteration, the ``_Diagonal``
measurement and its step (``mixed.map_step``), and the stacked cone kernel
of the DRM-prod run on the cone rows of the first iterate's reflection
``2 P_D(z) - z`` (``mixed.soc_rows_project``), on each ``mixed`` instance,
the MAP-prod measurement (``_RowSpace.measure``) and one whole MAP-prod iteration, that
measurement and its step (``poly.map_step``), and the same two for DRM-prod
(``poly.drm_measure`` and ``poly.drm_step``, from the first iterate), on
each ``poly`` instance, and, as controls that a change to the product space
leaves alone, the MAP measurement of a cone run on each ``cone`` instance
and a whole CRM ``run`` with ``max_iter=1`` on each ``cone`` instance
(``cone.run_us``): the fixed cost of a cone run, which its few iterations
add little to. Five more are
also timed at the block mean of the first start's MAP-prod final point
(``final_us``), where most balls hold the point: the MAP-prod measurement of
each ``mixed`` instance, by the run's own problem, and each of that
problem's four row kernels alone (``mixed.ball_project``,
``mixed.box_project``, ``mixed.halfspace_project`` and
``mixed.soc_project``). ``mixed.soc_rows_project`` is also timed
(``final_us``) on the cone rows of the DRM-prod run's final shadow, which all
lie in the cone. Each entry names the callee it timed.

``--small`` runs the benchmark's small workloads for 1 s, grids of a few
runs and short timings: a check of the file's shape, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import timeit
from time import perf_counter

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cone", "poly", "mixed")
SEED = 1
SECONDS = {False: 10.0, True: 1.0}
REPEATS = 5
# (instances, starts) of the cone and the polyhedral grid
GRIDS = {False: ((100, 10), (1, 20)), True: ((2, 2), (1, 2))}
GRID_SEEDS = (2024, 137)  # the base seeds of the golden table in tests/test_acceptance.py
REFERENCE_CALLS = {False: 1000, True: 20}  # about 0.3 s and 6 ms at reference speed
# (calls per timing, timings) of each per-layer median
LAYER_TIMEIT = {False: (200, 7), True: (5, 3)}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(workload: str, small: bool) -> tuple[dict, dict]:
    """One run of ``perfbench/run.py``: the workload's entry and the machine facts."""
    args = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS[small])]
    out = subprocess.run(args + (["--small"] if small else []), cwd=ROOT,
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench {workload} exited with code {out.returncode}: "
                           f"{out.stderr.strip()}")
    path = os.path.join(ROOT, "perfbench", "out", f"{workload}-seed{SEED}-trace0.json")
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    result = report["result"]
    rounds = report["rounds"]
    entry = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "rounds": len(rounds),
        # perfbench counts a run correct only if every round repeats these
        "iterations_per_round": rounds[0]["iterations"],
    }
    return entry, report["machine"]


def time_grid(grid, instances: int, starts: int, seed: int, reference, calls: int) -> dict:
    """``REPEATS`` runs of one grid, each timed beside ``calls`` calls of the
    reference before and after it, and the grid's iteration totals."""
    def run():
        return grid(num_instances=instances, starts_per_instance=starts, n=200,
                    base_seed=seed, jobs=1)

    # one untimed run and reference measurement first, so that caches and the
    # allocator have warmed up before the first timed repeat
    run()
    reference.measure(calls)
    seconds, slowdowns, totals = [], [], None
    for _ in range(REPEATS):
        before = reference.measure(calls)
        t = perf_counter()
        result = run()
        seconds.append(perf_counter() - t)
        slowdowns.append(0.5 * (before + reference.measure(calls)))
        counts: dict[str, int] = {}
        for r in result.records:
            counts[r.method] = counts.get(r.method, 0) + r.iterations
        if totals not in (None, counts):
            raise RuntimeError(f"iteration totals changed between repeats: {totals} {counts}")
        totals = counts
    return {"instances": instances, "starts": starts, "n": 200, "base_seed": seed, "jobs": 1,
            "repeats": REPEATS, "median_s": statistics.median(seconds), "seconds": seconds,
            "reference_calls": calls, "slowdowns": slowdowns,
            "median_ref_s": statistics.median(s / d for s, d in zip(seconds, slowdowns)),
            "iterations": totals}


def _median_us(call, number: int, repeats: int) -> float:
    return statistics.median(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6


def time_layers(small: bool) -> dict:
    """Per-layer timeit medians, per call in microseconds, on every instance
    of the benchmark's workloads."""
    import numpy as np
    import workloads
    from crmfeas.methods import Method, SolverConfig, _problem, run
    from crmfeas.product_space import _prod_problem, run_prod
    from crmfeas.sets import _BallRows, _BoxRows, _ConeRows, _HalfspaceRows

    number, repeats = LAYER_TIMEIT[small]
    problems = {name: workloads.build(name, small) for name in WORKLOADS}

    def config(method):
        return SolverConfig(tol=workloads.TOL, max_iter=workloads.MAX_ITER, method=method)

    def layer(control, calls):
        """One entry from the (instance, callee, call at the first start[, call
        at its MAP-prod final point]) of every instance."""
        calls = list(calls)
        (callee,) = {c[1] for c in calls}
        entry = {"callee": callee, "control": control, "instances": [c[0] for c in calls]}
        for key, k in (("us", 2), ("final_us", 3)):
            if len(calls[0]) > k:
                us = [_median_us(c[k], number, repeats) for c in calls]
                entry[key], entry[f"median_{key}"] = us, statistics.median(us)
        return entry

    def measured(problem, start):
        z = problem.start(start)  # the first iterate
        return f"{type(problem).__name__}.measure", lambda: problem.measure(z)

    def stepped(problem, start):
        z = problem.start(start)  # one whole iteration from the first iterate
        measure, step = problem.measure, problem.step
        return f"{type(problem).__name__}.measure+step", lambda: step(z, *measure(z))

    def sums(p):
        W = p.W
        x, work = p.starts[0].reshape(W.m, W.block_dim).mean(axis=0), W._workspace()
        return "ProductSet._projection_sums", lambda: W._projection_sums(x, work)

    def prod(p, method, timed=measured):
        return timed(*_prod_problem(p.W, p.starts[0], config(method)))

    def map_prod(p):
        """The calls of the measurement and, by kernel class, of each row
        kernel of the MAP-prod run from the first start, at that start's block
        mean and at the block mean of the run's final point."""
        problem, x = _prod_problem(p.W, p.starts[0], config(Method.MAP))
        final = run_prod(p.W, p.starts[0], config(Method.MAP)).final_point
        points = x, final.reshape(p.W.m, p.W.block_dim).mean(axis=0)
        measure = problem.measure
        kernels = {type(rows): (p.index, f"{type(rows).__name__}.project",
                                *(lambda x=x, rows=rows, out=out: rows.project(x, out)
                                  for x in points))
                   for rows, out in problem._work[-1]}
        return (p.index, "_Diagonal.measure", *(lambda x=x: measure(x) for x in points)), kernels

    def drm_cones(p):
        """The call of the stacked cone kernel of the DRM-prod run from the
        first start, on the cone rows of the first iterate's reflection
        ``2 P_D(z) - z`` and on those of the run's final shadow, a point of
        ``D`` whose blocks lie in the cone."""
        problem, z = _prod_problem(p.W, p.starts[0], config(Method.DRM))
        final = run_prod(p.W, p.starts[0], config(Method.DRM)).final_point
        W = problem.K  # the product in group order
        ((rows_slice, rows),) = [g for g in W._groups if type(g[1]) is _ConeRows]
        points = [v.reshape(W.m, W.block_dim)[rows_slice]
                  for v in (2.0 * problem.U._project(z) - z, final)]
        return (p.index, "_ConeRows.project",
                *(lambda X=X, out=np.empty_like(X): rows.project(X, out) for X in points))

    def cone(p):
        K, U = p.instance.sets[0], p.instance.affine
        return measured(*_problem(K, U, p.starts[0], config(Method.MAP)))

    def cone_run(p):
        K, U, z0 = p.instance.sets[0], p.instance.affine, p.starts[0]
        cfg = SolverConfig(tol=workloads.TOL, max_iter=1, method=Method.CRM)
        return "run", lambda: run(K, U, z0, cfg)

    mixed = problems["mixed"]
    with np.errstate(over="ignore", invalid="ignore"):  # as run and run_prod call them
        maps = [map_prod(p) for p in mixed]
        timings = {
            "mixed.projection_sums": layer(False, ((p.index, *sums(p)) for p in mixed)),
            "mixed.drm_measure": layer(False, ((p.index, *prod(p, Method.DRM)) for p in mixed)),
            "mixed.map_measure": layer(False, (measure for measure, _ in maps)),
            "mixed.map_step": layer(False, ((p.index, *prod(p, Method.MAP, stepped))
                                            for p in mixed)),
            "mixed.drm_step": layer(False, ((p.index, *prod(p, Method.DRM, stepped))
                                            for p in mixed)),
            "mixed.soc_rows_project": layer(False, (drm_cones(p) for p in mixed if any(
                type(rows) is _ConeRows for _, rows in p.W._groups))),
            **{f"mixed.{kind}_project": layer(False, (kernels[rows] for _, kernels in maps))
               for kind, rows in (("ball", _BallRows), ("box", _BoxRows),
                                  ("halfspace", _HalfspaceRows), ("soc", _ConeRows))},
            "cone.map_measure": layer(True, ((p.index, *cone(p)) for p in problems["cone"])),
            "cone.run_us": layer(True, ((p.index, *cone_run(p)) for p in problems["cone"])),
            "poly.map_measure": layer(False, ((p.index, *prod(p, Method.MAP))
                                              for p in problems["poly"])),
            "poly.map_step": layer(False, ((p.index, *prod(p, Method.MAP, stepped))
                                           for p in problems["poly"])),
            "poly.drm_measure": layer(False, ((p.index, *prod(p, Method.DRM))
                                              for p in problems["poly"])),
            "poly.drm_step": layer(False, ((p.index, *prod(p, Method.DRM, stepped))
                                           for p in problems["poly"])),
        }
    return {"unit": "us", "number": number, "repeats": repeats, "timings": timings}


def record(label: str, small: bool = False, workloads=WORKLOADS) -> str:
    """Measure, write ``BENCH_<label>.json`` beside this script, return its path."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        raise ValueError(f"label must be letters, digits, '_', '.' or '-', got {label!r}")
    entries, machine = {}, None
    for workload in workloads:
        entries[workload], machine = run_workload(workload, small)
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from calibrate import Reference
    from crmfeas.bench import bench_polyhedral_prod, bench_soc

    (soc_i, soc_s), (poly_i, poly_s) = GRIDS[small]
    soc_seed, poly_seed = GRID_SEEDS
    reference, calls = Reference(), REFERENCE_CALLS[small]
    doc = {
        "label": label,
        "small": small,
        "machine": machine,
        "perfbench": {"seed": SEED, "seconds": SECONDS[small], "workloads": entries},
        "grids": {"soc": time_grid(bench_soc, soc_i, soc_s, soc_seed, reference, calls),
                  "polyhedral_prod": time_grid(bench_polyhedral_prod, poly_i, poly_s,
                                               poly_seed, reference, calls)},
        "layers": time_layers(small),
    }
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--small", action="store_true",
                        help="small workloads and grids, to check the file's shape")
    args = parser.parse_args(argv)
    # before crmfeas, and so numpy, is first imported
    os.environ.update(THREAD_ENV)
    try:
        print(record(args.label, args.small))
    except (RuntimeError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
