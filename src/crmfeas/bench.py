"""Benchmark harness: run the experiment grids, aggregate, export.

Each grid crosses random instances with random starting points and runs all
methods from the same projected start. Iteration counts are the performance
measure; per-method statistics and Dolan-More performance profiles are
computed from the per-run records. Everything is deterministic given the base
seed, including the record order (sorted by instance seed, start seed,
method) and the exported files.
"""

from __future__ import annotations

import bisect
import csv
import json
import statistics
from dataclasses import asdict, dataclass, field
from functools import partial

from .errors import EmptyInput
from .instances import derive_seed, gen_polyhedral_instance, gen_soc_instance, gen_start
from .methods import Method, SolverConfig, Status, run
from .product_space import ProductSet, run_prod

__all__ = [
    "RunRecord",
    "RunStats",
    "ProfileCurve",
    "BenchResult",
    "summarize",
    "make_stats",
    "performance_profile",
    "profile_from_records",
    "check_grid_size",
    "bench_soc",
    "bench_polyhedral_prod",
    "export",
    "export_records_csv",
    "read_records_csv",
    "export_traces_csv",
    "export_summary_json",
    "export_profile",
]

SOC_METHODS = ("CRM", "DRM", "MAP")
PROD_METHODS = ("CRM-prod", "DRM-prod", "MAP-prod")
CSV_COLUMNS = ("instance_seed", "start_seed", "method", "iterations", "final_gap", "status")
# record labels of each grid kind, in the order CRM, DRM, MAP
_GRID_METHODS = {"soc": SOC_METHODS, "polyhedral_prod": PROD_METHODS}

# seed-stream tags, part of the determinism contract
_INSTANCE_TAG = 1
_START_TAG = 2


@dataclass
class RunRecord:
    """One (instance, start, method) run."""

    instance_seed: int
    start_seed: int
    method: str
    iterations: int
    final_gap: float
    status: str
    gaps: list[float] | None = None


@dataclass
class RunStats:
    """Aggregate iteration statistics for one method."""

    method: str
    mean: float
    min: int
    median: float
    max: int
    failures: int


@dataclass
class ProfileCurve:
    """Performance-profile curve: fraction of runs solved within factor tau."""

    method: str
    thresholds: list[float]
    fraction_solved: list[float]


@dataclass
class BenchResult:
    kind: str
    params: dict
    records: list[RunRecord]
    stats: list[RunStats] = field(default_factory=list)


def summarize(counts) -> dict:
    """mean / min / median / max of iteration counts.

    The median uses the midpoint convention (average of the two central order
    statistics for even length).
    """
    counts = list(counts)
    if not counts:
        raise EmptyInput("no iteration counts to summarize")
    return {
        "mean": statistics.fmean(counts),
        "min": min(counts),
        "median": float(statistics.median(counts)),
        "max": max(counts),
    }


def make_stats(method: str, records, max_iter: int) -> RunStats:
    """Build RunStats for ``method`` from its records.

    Non-converged runs count as ``max_iter`` and are reported in the
    ``failures`` column.
    """
    failures = sum(1 for r in records if r.status != Status.CONVERGED.value)
    counts = [r.iterations if r.status == Status.CONVERGED.value else max_iter
              for r in records]
    return RunStats(method=method, **summarize(counts), failures=failures)


def performance_profile(costs, methods) -> list[ProfileCurve]:
    """Dolan-More performance profiles from a runs x methods cost matrix.

    Each row holds one run's cost (positive) per method, with ``None``
    marking unsolved runs; ``methods`` labels the columns. Per run, each
    method's ratio is its cost divided by the best cost in the row (failures
    get ratio +inf; so do whole rows without any success). The threshold grid
    is the sorted set of distinct finite ratios, and each curve reports the
    fraction of runs with ratio at most tau.
    """
    rows = [list(row) for row in costs]
    if not rows:
        raise EmptyInput("no cost rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("cost rows have unequal width")
    if len(methods) != width:
        raise ValueError("one method label per column required")

    ratios = []
    for row in rows:
        finite = [c for c in row if c is not None]
        best = min(finite) if finite else None
        ratios.append(
            [float("inf") if (c is None or best is None) else c / best for c in row]
        )

    finite_ratios = sorted({r for row in ratios for r in row if r != float("inf")})
    thresholds = finite_ratios or [1.0]
    runs = len(rows)
    curves = []
    for j, name in enumerate(methods):
        col = sorted(row[j] for row in ratios)
        fractions = [bisect.bisect_right(col, tau) / runs for tau in thresholds]
        curves.append(ProfileCurve(method=name, thresholds=list(thresholds), fraction_solved=fractions))
    return curves


def profile_from_records(records) -> list[ProfileCurve]:
    """Group records by (instance seed, start seed) and profile the methods."""
    methods = sorted({r.method for r in records})
    by_run: dict[tuple[int, int], dict[str, RunRecord]] = {}
    for r in records:
        by_run.setdefault((r.instance_seed, r.start_seed), {})[r.method] = r
    rows = []
    for key in sorted(by_run):
        group = by_run[key]
        rows.append(
            [
                group[m].iterations
                if m in group and group[m].status == Status.CONVERGED.value
                else None
                for m in methods
            ]
        )
    return performance_profile(rows, methods)


def _grid_unit(args) -> list[RunRecord]:
    """All runs of one instance of a grid (picklable for the process pool)."""
    kind, n, configs, instance_seed, start_seeds, record_gaps = args
    if kind == "soc":
        instance = gen_soc_instance(n, instance_seed)
        solve = partial(run, instance.sets[0], instance.affine)
    else:
        instance = gen_polyhedral_instance(n, instance_seed)
        solve = partial(run_prod, ProductSet(instance.sets))
    records = []
    for start_seed in start_seeds:
        start = gen_start(instance, start_seed, min_gap=configs[0].tol)
        for name, cfg in zip(_GRID_METHODS[kind], configs):
            trace = solve(start.projected, cfg)
            records.append(
                RunRecord(
                    instance_seed=instance_seed,
                    start_seed=start_seed,
                    method=name,
                    iterations=trace.iterations,
                    final_gap=trace.gaps[-1],
                    status=trace.status.value,
                    gaps=trace.gaps if record_gaps else None,
                )
            )
    return records


def check_grid_size(num_instances: int, starts_per_instance: int) -> None:
    """Raise ``ValueError`` unless a grid has at least one instance and one start."""
    if num_instances < 1 or starts_per_instance < 1:
        raise ValueError("instance and start counts must be positive")


def _run_grid(kind, num_instances, starts_per_instance, n, tol, max_iter,
              base_seed, jobs, record_gaps) -> BenchResult:
    check_grid_size(num_instances, starts_per_instance)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    configs = tuple(SolverConfig(tol=tol, max_iter=max_iter, method=method)
                    for method in (Method.CRM, Method.DRM, Method.MAP))
    units = []
    for i in range(num_instances):
        instance_seed = derive_seed(base_seed, _INSTANCE_TAG, i)
        start_seeds = [
            derive_seed(base_seed, _START_TAG, i, j) for j in range(starts_per_instance)
        ]
        units.append((kind, n, configs, instance_seed, start_seeds, record_gaps))

    if jobs > 1:
        # imported here, so that `import crmfeas` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_grid_unit, units))
    else:
        chunks = [_grid_unit(u) for u in units]

    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.instance_seed, r.start_seed, r.method))
    stats = [
        make_stats(m, [r for r in records if r.method == m], max_iter)
        for m in _GRID_METHODS[kind]
    ]
    params = {
        "n": n,
        "instances": num_instances,
        "starts": starts_per_instance,
        "tol": tol,
        "max_iter": max_iter,
        "base_seed": base_seed,
    }
    return BenchResult(kind=kind, params=params, records=records, stats=stats)


def bench_soc(num_instances: int = 100, starts_per_instance: int = 10, n: int = 200,
              tol: float = 1e-6, max_iter: int = 100_000, base_seed: int = 0,
              jobs: int = 1, record_gaps: bool = False) -> BenchResult:
    """Cone-and-affine grid: CRM vs DRM vs MAP on the two-set problem.

    All three methods start from the same projected point. CRM and MAP stop
    when ``||z - P_C(z)|| < tol`` (their iterates stay in ``U``). DRM runs
    ``z -> (z + R_C(R_U(z))) / 2``, whose reflections ``R_U(z)`` are the
    textbook DRM iterates, and stops when its shadow ``y = P_U(z)`` has
    ``||y - P_C(2y - z)|| < tol``, the gap of the textbook iterate (see
    :func:`crmfeas.methods.run`).
    """
    return _run_grid("soc", num_instances, starts_per_instance,
                     n, tol, max_iter, base_seed, jobs, record_gaps)


def bench_polyhedral_prod(num_instances: int = 1, starts_per_instance: int = 20,
                          n: int = 200, tol: float = 1e-6, max_iter: int = 100_000,
                          base_seed: int = 0, jobs: int = 1,
                          record_gaps: bool = False) -> BenchResult:
    """Polyhedral grid under the product-space reformulation.

    Starts are diagonal lifts; stopping uses the product feasibility error
    (see :func:`crmfeas.product_space.run_prod`).
    """
    return _run_grid("polyhedral_prod", num_instances,
                     starts_per_instance, n, tol, max_iter, base_seed, jobs, record_gaps)


# --- export -----------------------------------------------------------------

def export_records_csv(records, path) -> None:
    """One row per run; floats keep full (repr) precision."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [r.instance_seed, r.start_seed, r.method, r.iterations,
                 repr(r.final_gap), r.status]
            )


def read_records_csv(path) -> list[RunRecord]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f, restval="")  # a short row fails int() or float()
        if reader.fieldnames is None or list(reader.fieldnames) != list(CSV_COLUMNS):
            raise ValueError(f"expected CSV columns {','.join(CSV_COLUMNS)}")
        return [
            RunRecord(
                instance_seed=int(row["instance_seed"]),
                start_seed=int(row["start_seed"]),
                method=row["method"],
                iterations=int(row["iterations"]),
                final_gap=float(row["final_gap"]),
                status=row["status"],
            )
            for row in reader
        ]


def export_traces_csv(records, path) -> None:
    """Convergence curves as (iteration, gap) rows, for log-log plotting."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["instance_seed", "start_seed", "method", "iteration", "gap"])
        for r in records:
            if r.gaps is None:
                continue
            for k, g in enumerate(r.gaps):
                writer.writerow([r.instance_seed, r.start_seed, r.method, k, repr(g)])


def export_profile(curves, format: str, path) -> None:
    """Write profile curves: a JSON list of ``{method, thresholds,
    fraction_solved}`` or CSV rows ``method, threshold, fraction_solved``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        if format == "json":
            json.dump([asdict(c) for c in curves], f)
            f.write("\n")
        elif format == "csv":
            writer = csv.writer(f)
            writer.writerow(["method", "threshold", "fraction_solved"])
            for c in curves:
                for tau, frac in zip(c.thresholds, c.fraction_solved):
                    writer.writerow([c.method, repr(tau), repr(frac)])
        else:
            raise ValueError(f"unknown format {format!r}")


def export_summary_json(result: BenchResult, path, profiles) -> None:
    doc = {
        "schema": 1,
        "kind": result.kind,
        "params": result.params,
        "stats": [asdict(s) for s in result.stats],
        "profile": [asdict(c) for c in profiles],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def export(result: BenchResult, format: str, path) -> None:
    """Write a bench result: per-run CSV or JSON summary (stats + profiles)."""
    if format == "csv":
        export_records_csv(result.records, path)
    elif format == "json":
        export_summary_json(result, path, profiles=profile_from_records(result.records))
    else:
        raise ValueError(f"unknown format {format!r}")
