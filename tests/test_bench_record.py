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

    assert set(doc) == {"label", "small", "machine", "perfbench", "grids", "layers", "source"}
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
    timings = layers["timings"]
    # every workload and method by one rule, the kernels of each mixed product besides
    callees = {name: t["callee"] for name, t in timings.items()}
    adapters = {"cone": dict.fromkeys(("CRM", "DRM", "MAP"), "_ConeAffine"),
                "poly": {"CRM": "_Halfspaces", "DRM": "_RowSpace", "MAP": "_RowSpace"},
                "mixed": {"CRM": "_Diagonal", "DRM": "_TwoSets", "MAP": "_Diagonal"}}
    for workload, by_method in adapters.items():
        solve = "run" if workload == "cone" else "run_prod"
        for method, adapter in by_method.items():
            name = f"{workload}.{method}"
            assert callees.pop(f"{name}.measure") == f"{adapter}.measure"
            assert callees.pop(f"{name}.iteration") == f"{adapter}.measure+step"
            assert callees.pop(f"{name}.run_us") == f"{solve}({adapter})"
    kernels = {"_BallRows", "_BoxRows", "_HalfspaceRows", "_ConeRows"}
    for method in ("MAP", "DRM"):  # the kernel layers are left
        assert {name: callee for name, callee in callees.items() if f".{method}." in name} \
            == {f"mixed.{method}.{kind}": f"{kind}.project" for kind in kernels}
    assert len(callees) == 2 * len(kernels)
    instances = {"cone": [0, 1, 2], "poly": [0], "mixed": [0, 1]}  # the small workloads
    for name, t in timings.items():
        workload, what = name.split(".")[0], name.split(".")[2]
        if what in kernels:  # not every mixed product has every kind of factor
            assert set(t["instances"]) <= set(instances["mixed"])
        else:
            assert t["instances"] == instances[workload]
        # all but a whole run are also timed at the last iterate that steps
        timed = ("us",) if what == "run_us" else ("us", "final_us")
        assert {"us", "final_us"} & set(t) == set(timed)
        for key in timed:
            assert len(t[key]) == len(t["instances"]) and all(us > 0 for us in t[key])
            assert t[f"median_{key}"] == statistics.median(t[key])

    source = doc["source"]
    src = os.path.join(tmp_path, "src", "crmfeas")
    assert set(source["files"]) == {f for f in os.listdir(src) if f.endswith(".py")}
    for name, counts in source["files"].items():
        with open(os.path.join(src, name), encoding="utf-8") as f:
            lines = len(f.readlines())
        assert set(counts) == {"code", "docstring", "comment", "blank"}
        assert min(counts.values()) >= 0 and sum(counts.values()) == lines, name
    assert source["total"] == {key: sum(c[key] for c in source["files"].values())
                               for key in source["total"]}


def test_a_label_that_is_not_a_file_name_is_refused():
    with pytest.raises(ValueError):
        load(os.path.join(ROOT, "bench_record.py")).record("../x")
