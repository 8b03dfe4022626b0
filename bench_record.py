"""Write ``BENCH_<label>.json``: the benchmark's end-to-end metrics and the
wall time of the paper's two grids, from one command.

    python3 bench_record.py --label L [--small]

The file is written beside this script, and every run uses this checkout.
For each workload the script runs ``perfbench/run.py`` as it is (seed
``SEED``, ``SECONDS`` of solving) and keeps from its report the five
end-to-end metrics, the iteration totals of a round and the machine facts.
It then times the reference grids ``bench_soc(100, 10)`` and
``bench_polyhedral_prod(1, 20)`` at ``n = 200`` with ``jobs=1`` and the base
seeds of the golden table, with BLAS on one thread, and keeps the median wall time of ``REPEATS`` runs and the
iteration totals per method, which must repeat exactly. A speed-up that
changes an iteration count is a change of behaviour, so compare the counts of
two files before their times.

``--small`` runs the benchmark's small workloads for 1 s and grids of a few
runs: a check of the file's shape, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cone", "poly", "mixed")
SEED = 1
SECONDS = {False: 10.0, True: 1.0}
REPEATS = 5
# (instances, starts) of the cone and the polyhedral grid
GRIDS = {False: ((100, 10), (1, 20)), True: ((2, 2), (1, 2))}
GRID_SEEDS = (2024, 137)  # the base seeds of the golden table in tests/test_acceptance.py
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


def time_grid(grid, instances: int, starts: int, seed: int) -> dict:
    """Median wall time of ``REPEATS`` runs of one grid, and its iteration totals."""
    seconds, totals = [], None
    for _ in range(REPEATS):
        t = perf_counter()
        result = grid(num_instances=instances, starts_per_instance=starts, n=200,
                      base_seed=seed, jobs=1)
        seconds.append(perf_counter() - t)
        counts: dict[str, int] = {}
        for r in result.records:
            counts[r.method] = counts.get(r.method, 0) + r.iterations
        if totals not in (None, counts):
            raise RuntimeError(f"iteration totals changed between repeats: {totals} {counts}")
        totals = counts
    return {"instances": instances, "starts": starts, "n": 200, "base_seed": seed, "jobs": 1,
            "repeats": REPEATS, "median_s": statistics.median(seconds),
            "seconds": seconds, "iterations": totals}


def record(label: str, small: bool = False, workloads=WORKLOADS) -> str:
    """Measure, write ``BENCH_<label>.json`` beside this script, return its path."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        raise ValueError(f"label must be letters, digits, '_', '.' or '-', got {label!r}")
    entries, machine = {}, None
    for workload in workloads:
        entries[workload], machine = run_workload(workload, small)
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from crmfeas.bench import bench_polyhedral_prod, bench_soc

    (soc_i, soc_s), (poly_i, poly_s) = GRIDS[small]
    soc_seed, poly_seed = GRID_SEEDS
    doc = {
        "label": label,
        "small": small,
        "machine": machine,
        "perfbench": {"seed": SEED, "seconds": SECONDS[small], "workloads": entries},
        "grids": {"soc": time_grid(bench_soc, soc_i, soc_s, soc_seed),
                  "polyhedral_prod": time_grid(bench_polyhedral_prod, poly_i, poly_s,
                                               poly_seed)},
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
