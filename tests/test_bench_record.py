"""The BENCH file that ``bench_record.py`` writes, on a small run of one workload."""

import importlib.util
import json
import os
import shutil
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = {"setup_s", "crm_s", "drm_s", "map_s", "peak_rss_mb"}


def load(path):
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_record_of_one_workload_has_every_field(tmp_path):
    # a copy of the checkout, so that the runs write nothing here
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__", "*.egg-info",
                                                      ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "bench_record.py"), tmp_path)
    path = load(tmp_path / "bench_record.py").record("schema", small=True, workloads=("cone",))
    assert path == str(tmp_path / "BENCH_schema.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    assert set(doc) == {"label", "small", "machine", "perfbench", "grids", "layers"}
    assert (doc["label"], doc["small"]) == ("schema", True)
    assert {"nproc", "python", "numpy", "blas", "threads"} <= set(doc["machine"])
    cone = doc["perfbench"]["workloads"]["cone"]
    assert set(doc["perfbench"]["workloads"]) == {"cone"}
    assert cone["correct"] is True and cone["failed"] == 0 and cone["attempted"] > 0
    assert set(cone["metrics"]) == set(cone["units"]) == METRICS
    assert all(v > 0 for v in cone["metrics"].values())
    assert cone["rounds"] >= 1
    assert set(cone["iterations_per_round"]) == {"CRM", "DRM", "MAP"}
    assert (doc["grids"]["soc"]["base_seed"], doc["grids"]["polyhedral_prod"]["base_seed"]) \
        == (2024, 137)
    for grid in doc["grids"].values():
        assert (grid["jobs"], grid["n"]) == (1, 200)
        assert len(grid["seconds"]) == grid["repeats"]
        assert grid["median_s"] == sorted(grid["seconds"])[grid["repeats"] // 2]
        assert len(grid["iterations"]) == 3 and all(k > 0 for k in grid["iterations"].values())
        # each repeat timed beside the benchmark's reference computation
        assert grid["reference_calls"] > 0
        assert len(grid["slowdowns"]) == grid["repeats"] and all(s > 0 for s in grid["slowdowns"])
        at_reference = sorted(s / d for s, d in zip(grid["seconds"], grid["slowdowns"]))
        assert grid["median_ref_s"] == at_reference[grid["repeats"] // 2]

    layers = doc["layers"]
    assert (layers["unit"], layers["number"] > 0, layers["repeats"] > 0) == ("us", True, True)
    assert {name: (t["callee"], t["control"]) for name, t in layers["timings"].items()} == {
        "mixed.projection_sums": ("ProductSet._projection_sums", False),
        "mixed.drm_measure": ("_TwoSets.measure", False),
        "mixed.map_measure": ("_Diagonal.measure", False),
        "mixed.map_step": ("_Diagonal.measure+step", False),
        "mixed.ball_project": ("_BallRows.project", False),
        "mixed.box_project": ("_BoxRows.project", False),
        "mixed.halfspace_project": ("_HalfspaceRows.project", False),
        "mixed.soc_project": ("_ConeRows.project", False),
        "cone.map_measure": ("_ConeAffine.measure", True),
        "cone.run_us": ("run", True),
        "poly.map_measure": ("_RowSpace.measure", False),
        "poly.map_step": ("_RowSpace.measure+step", False),
        "poly.drm_measure": ("_RowSpace.measure", False),
        "poly.drm_step": ("_RowSpace.measure+step", False),
    }
    final = {"mixed.map_measure", "mixed.ball_project", "mixed.box_project",
             "mixed.halfspace_project", "mixed.soc_project"}
    for name, t in layers["timings"].items():
        # five layers are also timed at the MAP-prod final point
        timed = ("us", "final_us") if name in final else ("us",)
        assert {"us", "final_us"} & set(t) == set(timed)
        for key in timed:
            assert len(t[key]) == len(t["instances"]) > 0 and all(us > 0 for us in t[key])
            assert t[f"median_{key}"] == statistics.median(t[key])


def test_a_label_that_is_not_a_file_name_is_refused():
    with pytest.raises(ValueError):
        load(os.path.join(ROOT, "bench_record.py")).record("../x")
