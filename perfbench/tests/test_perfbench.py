"""Tests of the benchmark itself: small runs of every workload, the answer
checks, and the refusal to run without the program's sources.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import crmfeas  # noqa: E402,F401  (workloads look its modules up in sys.modules)
import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _copy_bench(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the program and the benchmark, so runs write nothing here."""
    dest = tmp_path_factory.mktemp("checkout")
    _copy_bench(dest)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _run(cwd, *args):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric_with_its_unit(checkout, workload, trace):
    out = _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "1":
        layer = "methods" if workload == "cone" else "product_space"
        assert result["metrics"][f"{layer}.iterations.CRM"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    out = _run(tmp_path, "--workload", "cone", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _pushed_out(problem, x):
    """``x`` moved off the feasible set by 1e-3, to be rejected by the checks."""
    if isinstance(problem, workloads.ConeProblem):
        return x + 1e-3 * np.random.default_rng(0).standard_normal(x.size)  # leaves U
    # past the first halfspace factor, along its unit normal
    a, b = next(params for kind, params in problem.factors if kind == "halfspace")
    mean = checks.block_mean(x, problem.instance.m)
    unit = a / np.linalg.norm(a)
    step = (b - a @ mean) / np.linalg.norm(a) + 1e-3
    return np.tile(mean + step * unit, problem.instance.m)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_answers_and_reject_perturbed_ones(workload):
    problem = workloads.build(workload, small=True)[0]
    configs = workloads.configs()
    for method in workloads.METHODS:
        x = problem.solve(configs[method], problem.starts[0]).final_point
        assert problem.residual(method, x) <= checks.FEAS_TOL
        assert problem.residual(method, _pushed_out(problem, x)) > checks.FEAS_TOL

    z = problem.starts[0]
    crm, map_, drm, s = problem.one_step(z)
    assert checks.crm_not_farther(crm, map_, drm, z, s)
    assert not checks.crm_not_farther(s + 1.01 * (map_ - s), map_, drm, z, s)
    assert not checks.crm_not_farther(s + 1.01 * (drm - s), map_, drm, z, s)


def test_schedule_depends_on_the_seed_only():
    problems = workloads.build("cone", small=True)
    order = [(p.index, j) for p, j in workloads.schedule(problems, 5)]
    assert order == [(p.index, j) for p, j in workloads.schedule(problems, 5)]
    assert sorted(order) == [(i, j) for i, k in workloads.CONE_UNITS[True] for j in range(k)]


def test_known_faults_count_as_failed_and_other_misses_as_wrong():
    import worker

    methods = sys.modules["crmfeas.methods"]

    class Infeasible:
        index, starts = 7, [np.zeros(2)]

        def solve(self, config, z0):
            return methods.IterationTrace(gaps=[0.0], iterations=1,
                                          status=methods.Status.CONVERGED, final_point=z0)

        def residual(self, method, x):
            return 1.0

    result = worker.solve_round([(Infeasible(), 0)], workloads.configs(), {(7, 0, "CRM")})
    assert (result["attempted"], result["failed"], result["wrong"]) == (3, 1, 2)


def test_reference_keeps_up_with_the_solves_and_rescales_them():
    import calibrate
    import run

    reference = calibrate.Reference()
    assert 0.0 < reference.measure(5) < float("inf")
    reference.reset()
    reference.keep_up(0.02)
    assert reference.seconds >= calibrate.SHARE * 0.02 and reference.calls >= 1
    rounds = [{"seconds": {"CRM": 2.0}, "slowdown": 2.0}, {"seconds": {"CRM": 1.5}, "slowdown": 1.0}]
    assert run._at_reference_speed(rounds, "CRM") == pytest.approx(1.25)
