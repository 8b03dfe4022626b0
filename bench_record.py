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

The per-layer section holds timeit medians, per call, by one rule, on every
instance of the benchmark's workloads (``perfbench/workloads.py``) at its
first start. For each method the problem is built as ``run`` or
``run_prod`` builds it, and ``<workload>.<method>.measure`` times its
``measure`` and ``.iteration`` one whole iteration ``step(z, *measure(z))``,
at the first iterate (``us``) and at the run's last iterate that steps
(``final_us``), reached by replaying ``step``, which must end on the run's
last gap; ``.run_us`` times a whole run with ``max_iter=1``. Each row kernel
of a ``mixed`` product in group order is timed as ``mixed.MAP.<kernel>`` in
its 1-D form at those two MAP-prod iterates and as ``mixed.DRM.<kernel>`` in
its 2-D form on the lifted first DRM-prod iterate and on the final shadow.
Each entry names the adapter class or kernel it timed.

The source section counts the code, docstring, comment and blank lines of
each ``src/crmfeas/*.py``: docstrings by ``ast``, every line of them, blank
ones included; comment lines, those holding only a comment, by ``tokenize``.

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
    """Per-layer timeit medians, per call in microseconds, by the rule of the
    module docstring."""
    import numpy as np
    import workloads
    from crmfeas.methods import Method, SolverConfig, _problem, run
    from crmfeas.product_space import _prod_problem, run_prod

    number, repeats = LAYER_TIMEIT[small]
    timings: dict[str, dict] = {}

    def layer(name, index, callee, *calls):
        """Time ``calls``, at the first and the final point, as instance
        ``index`` of layer ``name``, which times ``callee`` on every instance."""
        entry = timings.setdefault(name, {"callee": callee, "instances": []})
        if entry["callee"] != callee:
            raise RuntimeError(f"layer {name} times {entry['callee']} and {callee}")
        entry["instances"].append(index)
        for key, call in zip(("us", "final_us"), calls):
            entry.setdefault(key, []).append(_median_us(call, number, repeats))
            entry[f"median_{key}"] = statistics.median(entry[key])

    with np.errstate(over="ignore", invalid="ignore"):  # as run and run_prod call them
        for workload in WORKLOADS:
            for p in workloads.build(workload, small):
                solve, build, sets = ((run, _problem, (p.instance.sets[0], p.instance.affine))
                                      if workload == "cone" else (run_prod, _prod_problem, (p.W,)))
                for method in Method:
                    cfg, once = (SolverConfig(tol=workloads.TOL, max_iter=k, method=method)
                                 for k in (workloads.MAX_ITER, 1))
                    trace = solve(*sets, p.starts[0], cfg)
                    problem, y = build(*sets, p.starts[0], cfg)
                    measure, step = problem.measure, problem.step
                    first = last = z = problem.start(y)
                    for _ in range(trace.iterations):  # the run again, step by step
                        last, z = z, step(z, *measure(z))
                    shadow, gap, _ = measure(z)
                    if gap != trace.gaps[-1]:
                        raise RuntimeError(f"{workload} {p.index} {method.value}: replaying the "
                                           f"run ends on gap {gap}, not {trace.gaps[-1]}")
                    name, adapter = f"{workload}.{method.value}", type(problem).__name__
                    layer(f"{name}.measure", p.index, f"{adapter}.measure",
                          *(lambda z=z: measure(z) for z in (first, last)))
                    layer(f"{name}.iteration", p.index, f"{adapter}.measure+step",
                          *(lambda z=z: step(z, *measure(z)) for z in (first, last)))
                    layer(f"{name}.run_us", p.index, f"{solve.__name__}({adapter})",
                          lambda: solve(*sets, p.starts[0], once))
                    if workload != "mixed" or method is Method.CRM:
                        continue
                    W = p.W._inner or p.W  # the product in group order
                    if method is Method.DRM:  # the stacks of the lifted start and final shadow
                        first, last = (v.reshape(W.m, W.block_dim) for v in (first, shadow))
                    for rows_slice, rows in W._groups:
                        kind, out = type(rows).__name__, np.empty((W.m, W.block_dim))[rows_slice]
                        points = (x[rows_slice] if x.ndim == 2 else x for x in (first, last))
                        layer(f"{name}.{kind}", p.index, f"{kind}.project",
                              *(lambda x=x: rows.project(x, out) for x in points))
    return {"unit": "us", "number": number, "repeats": repeats, "timings": timings}


def count_source() -> dict:
    """The code, docstring, comment and blank lines of each ``src/crmfeas/*.py``
    and their totals, by the rule of the module docstring."""
    import ast
    import io
    import tokenize

    src, files = os.path.join(ROOT, "src", "crmfeas"), {}
    # the tokens of no line of code: layout, and comments
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER, tokenize.ENCODING}
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as f:
            text = f.read()
        doc = {i for node in ast.walk(ast.parse(text)) if isinstance(node, (
            ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
               and ast.get_docstring(node, clean=False) is not None
               for i in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        code, comment = set(), set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
                comment.add(tok.start[0])
            elif tok.type not in layout:
                code.update(range(tok.start[0], tok.end[0] + 1))
        lines = text.splitlines()
        files[name] = {"code": len(code - doc), "docstring": len(doc),
                       "comment": len(comment - doc), "blank": sum(
                           not line.strip() for i, line in enumerate(lines, 1) if i not in doc)}
    return {"files": files, "total": {key: sum(c[key] for c in files.values())
                                      for key in ("code", "docstring", "comment", "blank")}}


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
        "source": count_source(),
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
