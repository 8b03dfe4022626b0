"""Benchmark harness: statistics, profiles, grids, export."""

import json

import pytest

from crmfeas import bench
from crmfeas.bench import (
    BenchResult,
    RunRecord,
    bench_polyhedral_prod,
    bench_soc,
    export,
    export_profile,
    export_records_csv,
    export_traces_csv,
    make_stats,
    performance_profile,
    profile_from_records,
    read_records_csv,
    summarize,
)
from crmfeas.errors import EmptyInput


# the summary JSON of TestExport.test_json_exports_pinned_byte_for_byte
SUMMARY_JSON = """{
  "schema": 1,
  "kind": "soc",
  "params": {
    "n": 2,
    "tol": 1e-06
  },
  "stats": [
    {
      "method": "CRM",
      "mean": 3.0,
      "min": 2,
      "median": 3.0,
      "max": 4,
      "failures": 0
    },
    {
      "method": "MAP",
      "mean": 6.5,
      "min": 3,
      "median": 6.5,
      "max": 10,
      "failures": 1
    }
  ],
  "profile": [
    {
      "method": "CRM",
      "thresholds": [
        1.0,
        1.5
      ],
      "fraction_solved": [
        1.0,
        1.0
      ]
    },
    {
      "method": "MAP",
      "thresholds": [
        1.0,
        1.5
      ],
      "fraction_solved": [
        0.0,
        0.5
      ]
    }
  ]
}
"""


class TestSummarize:
    def test_even_length_median_midpoint(self):
        s = summarize([4, 6])
        assert s["mean"] == 5.0 and s["median"] == 5.0
        assert s["min"] == 4 and s["max"] == 6

    def test_single_value(self):
        s = summarize([3])
        assert s == {"mean": 3.0, "min": 3, "median": 3.0, "max": 3}

    def test_skewed(self):
        s = summarize([1, 2, 100])
        assert s["mean"] == pytest.approx(34.333, abs=1e-3)
        assert s["median"] == 2.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            summarize([])


class TestMakeStats:
    def _records(self):
        mk = lambda it, status: RunRecord(0, 0, "X", it, 0.0, status)
        return [mk(5, "converged"), mk(7, "converged"), mk(100, "max_iter")]

    def test_failures_counted_as_max_iter_by_default(self):
        s = make_stats("X", self._records(), max_iter=100)
        assert s.failures == 1
        assert s.max == 100 and s.min == 5
        assert s.mean == pytest.approx((5 + 7 + 100) / 3)

    def test_ordering_invariants(self):
        s = make_stats("X", self._records(), max_iter=100)
        assert s.min <= s.median <= s.max
        assert s.min <= s.mean <= s.max


class TestPerformanceProfile:
    def test_single_method_jumps_to_one(self):
        curves = performance_profile([[2], [5], [9]], methods=["only"])
        assert curves[0].thresholds == [1.0]
        assert curves[0].fraction_solved == [1.0]

    def test_two_methods_hand_computed(self):
        curves = performance_profile([[2, 4], [3, 3]], methods=["m1", "m2"])
        by = {c.method: c for c in curves}
        assert by["m1"].thresholds == [1.0, 2.0]
        assert by["m1"].fraction_solved == [1.0, 1.0]
        assert by["m2"].fraction_solved == [0.5, 1.0]

    def test_failure_row_plateaus_below_one(self):
        curves = performance_profile([[2, None], [3, 6]], methods=["a", "b"])
        by = {c.method: c for c in curves}
        assert by["b"].fraction_solved[-1] == 0.5
        assert by["a"].fraction_solved[-1] == 1.0

    def test_monotone_nondecreasing(self, rng):
        rows = [[int(rng.integers(1, 50)) for _ in range(3)] for _ in range(40)]
        for c in performance_profile(rows, methods=["a", "b", "c"]):
            assert all(a <= b + 1e-15 for a, b in zip(c.fraction_solved, c.fraction_solved[1:]))
            assert c.fraction_solved[-1] <= 1.0
            assert all(t >= 1.0 for t in c.thresholds)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            performance_profile([], methods=[])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([[1, 2], [3]], methods=["a", "b"])

    def test_one_label_per_column_required(self):
        with pytest.raises(ValueError, match="one method label per column"):
            performance_profile([[1, 2], [3, 4]], methods=["a"])


class TestBenchSoc:
    def test_single_run_reproducible(self):
        a = bench_soc(num_instances=1, starts_per_instance=1, n=20, base_seed=5)
        b = bench_soc(num_instances=1, starts_per_instance=1, n=20, base_seed=5)
        assert len(a.records) == 3
        assert [(r.method, r.iterations) for r in a.records] == [
            (r.method, r.iterations) for r in b.records
        ]
        assert all(r.status == "converged" for r in a.records)

    def test_no_zero_iteration_runs(self):
        res = bench_soc(num_instances=4, starts_per_instance=3, n=25, base_seed=1)
        assert all(r.iterations >= 1 for r in res.records)

    def test_crm_never_beaten_by_map(self):
        res = bench_soc(num_instances=5, starts_per_instance=2, n=30, base_seed=3)
        by_run = {}
        for r in res.records:
            by_run.setdefault((r.instance_seed, r.start_seed), {})[r.method] = r.iterations
        assert all(g["CRM"] <= g["MAP"] for g in by_run.values())

    def test_parallel_matches_serial(self):
        kw = dict(num_instances=4, starts_per_instance=2, n=20, base_seed=9)
        serial = bench_soc(**kw)
        parallel = bench_soc(jobs=2, **kw)
        assert [(r.instance_seed, r.start_seed, r.method, r.iterations, r.final_gap)
                for r in serial.records] == [
            (r.instance_seed, r.start_seed, r.method, r.iterations, r.final_gap)
            for r in parallel.records
        ]

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            bench_soc(num_instances=0)


class TestBenchPoly:
    def test_reproducible_and_m1_collapse(self):
        # n=2 forces m=1: every method reduces to one projection onto X_1
        res = bench_polyhedral_prod(num_instances=2, starts_per_instance=2, n=2, base_seed=4)
        assert all(r.status == "converged" for r in res.records)
        by_run = {}
        for r in res.records:
            by_run.setdefault((r.instance_seed, r.start_seed), []).append(r.iterations)
        for counts in by_run.values():
            assert len(set(counts)) == 1 and counts[0] <= 2

    def test_stats_present_for_all_methods(self):
        res = bench_polyhedral_prod(num_instances=1, starts_per_instance=2, n=20, base_seed=8)
        assert {s.method for s in res.stats} == {"CRM-prod", "DRM-prod", "MAP-prod"}
        assert all(s.failures == 0 for s in res.stats)


@pytest.mark.parametrize("grid", [bench_soc, bench_polyhedral_prod])
@pytest.mark.parametrize("setting, match", [
    ({"jobs": 0}, "jobs"), ({"jobs": -3}, "jobs"),  # neither may run serially unsaid
    ({"tol": 0.0}, "tol"), ({"tol": float("nan")}, "tol"), ({"max_iter": 0}, "max_iter"),
])
def test_grid_settings_are_checked_before_any_instance_is_generated(monkeypatch, grid,
                                                                   setting, match):
    def generate(*args):
        raise AssertionError("an instance was generated")

    for name in ("gen_soc_instance", "gen_polyhedral_instance"):
        monkeypatch.setattr(bench, name, generate)
    with pytest.raises(ValueError, match=match):
        grid(num_instances=1, starts_per_instance=1, n=20, **setting)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        res = bench_soc(num_instances=2, starts_per_instance=2, n=20, base_seed=2)
        path = tmp_path / "runs.csv"
        export_records_csv(res.records, path)
        back = read_records_csv(path)
        assert [(r.instance_seed, r.start_seed, r.method, r.iterations, r.final_gap, r.status)
                for r in back] == [
            (r.instance_seed, r.start_seed, r.method, r.iterations, r.final_gap, r.status)
            for r in res.records
        ]

    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_records_csv([], path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["instance_seed,start_seed,method,iterations,final_gap,status"]

    def test_traces_csv(self, tmp_path):
        res = bench_soc(num_instances=1, starts_per_instance=1, n=20, base_seed=2,
                        record_gaps=True)
        path = tmp_path / "traces.csv"
        export_traces_csv(res.records, path)
        lines = path.read_text().strip().splitlines()
        expected_rows = sum(len(r.gaps) for r in res.records)
        assert len(lines) == expected_rows + 1

    def test_summary_json_with_profiles(self, tmp_path):
        res = bench_soc(num_instances=2, starts_per_instance=1, n=20, base_seed=2)
        path = tmp_path / "summary.json"
        export(res, "json", path)
        doc = json.loads(path.read_text())
        assert {s["method"] for s in doc["stats"]} == {"CRM", "DRM", "MAP"}
        assert {c["method"] for c in doc["profile"]} == {"CRM", "DRM", "MAP"}
        for c in doc["profile"]:
            assert c["fraction_solved"] == sorted(c["fraction_solved"])

    def test_json_exports_pinned_byte_for_byte(self, tmp_path):
        # the exports' keys in field order and their layout, on a hand-made grid
        records = [RunRecord(0, 5, "CRM", 2, 1e-7, "converged"),
                   RunRecord(0, 5, "MAP", 3, 5e-7, "converged"),
                   RunRecord(1, 6, "CRM", 4, 2e-7, "converged"),
                   RunRecord(1, 6, "MAP", 10, 0.5, "max_iter")]
        stats = [make_stats(m, [r for r in records if r.method == m], 10) for m in ("CRM", "MAP")]
        result = BenchResult(kind="soc", params={"n": 2, "tol": 1e-6}, records=records,
                             stats=stats)
        export(result, "json", tmp_path / "summary.json")
        export_profile(profile_from_records(records), "json", tmp_path / "profile.json")
        assert (tmp_path / "profile.json").read_text() == (
            '[{"method": "CRM", "thresholds": [1.0, 1.5], "fraction_solved": [1.0, 1.0]}, '
            '{"method": "MAP", "thresholds": [1.0, 1.5], "fraction_solved": [0.0, 0.5]}]\n')
        assert (tmp_path / "summary.json").read_text() == SUMMARY_JSON

    def test_unknown_format(self, tmp_path):
        res = bench_soc(num_instances=1, starts_per_instance=1, n=20, base_seed=2)
        with pytest.raises(ValueError):
            export(res, "xml", tmp_path / "x")

    def test_unknown_profile_format(self, tmp_path):
        curves = performance_profile([[1, 2]], methods=["a", "b"])
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            export_profile(curves, "xml", tmp_path / "x")

    def test_profile_from_records_handles_failures(self):
        mk = lambda i, m, it, ok: RunRecord(i, 0, m, it, 0.0, "converged" if ok else "max_iter")
        records = [mk(0, "A", 2, True), mk(0, "B", 4, True),
                   mk(1, "A", 3, True), mk(1, "B", 9, False)]
        curves = {c.method: c for c in profile_from_records(records)}
        assert curves["A"].fraction_solved[-1] == 1.0
        assert curves["B"].fraction_solved[-1] == 0.5
