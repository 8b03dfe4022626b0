"""Command-line interface: subcommands, exit codes, determinism of outputs."""

import json

import pytest

from crmfeas.cli import main
from crmfeas.instances import (
    Kind,
    ProblemInstance,
    gen_polyhedral_instance,
    gen_soc_instance,
    write_problem,
)
from crmfeas.sets import Ball
from conftest import INCONSISTENT_PROBLEMS, NON_INTEGER_FIELDS


def test_bench_soc_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "soc", "--n", "20", "--instances", "2", "--starts", "2", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "instance_seed,start_seed,method,iterations,final_gap,status"


def test_bench_poly_json_summary(tmp_path):
    out = tmp_path / "summary.json"
    code = main(["bench", "poly", "--n", "15", "--instances", "1", "--starts", "2",
                 "--seed", "5", "--out", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "polyhedral_prod"
    assert {s["method"] for s in doc["stats"]} == {"CRM-prod", "DRM-prod", "MAP-prod"}


def test_bench_trace_export(tmp_path):
    out = tmp_path / "runs.csv"
    code = main(["bench", "soc", "--n", "20", "--instances", "1", "--starts", "1",
                 "--seed", "3", "--out", str(out), "--trace"])
    assert code == 0
    traces = tmp_path / "runs.csv.traces.csv"
    assert traces.exists()
    assert traces.read_text().splitlines()[0] == "instance_seed,start_seed,method,iteration,gap"


def test_profile_subcommand(tmp_path):
    runs = tmp_path / "runs.csv"
    main(["bench", "soc", "--n", "20", "--instances", "2", "--starts", "2",
          "--seed", "3", "--out", str(runs)])
    out = tmp_path / "profile.csv"
    assert main(["profile", str(runs), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,threshold,fraction_solved"
    assert len(lines) > 1


def test_profile_without_out_prints_one_line_per_method(tmp_path, capsys):
    # two runs: CRM best on both, MAP 3 times slower on one and failed on the
    # other, DRM 1.5 times slower on both; the ratios are 1, 1.5 and 3
    runs = tmp_path / "runs.csv"
    runs.write_text("instance_seed,start_seed,method,iterations,final_gap,status\n"
                    "1,1,CRM,10,1e-7,converged\n1,1,DRM,15,1e-7,converged\n"
                    "1,1,MAP,30,1e-7,converged\n1,2,CRM,20,1e-7,converged\n"
                    "1,2,DRM,30,1e-7,converged\n1,2,MAP,9,1e-3,max_iter\n")
    assert main(["profile", str(runs)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "CRM: solved 100.0% within tau=3",
        "DRM: solved 100.0% within tau=3",
        "MAP: solved 50.0% within tau=3",
    ]


def test_solve_soc_problem(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    write_problem(gen_soc_instance(20, 42), problem)
    out = tmp_path / "solution.json"
    code = main(["solve", str(problem), "--method", "CRM", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "status=converged" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["status"] == "converged"
    assert len(doc["point"]) == 20


def test_solve_poly_problem(tmp_path):
    problem = tmp_path / "poly.json"
    inst = gen_polyhedral_instance(12, 7)
    write_problem(inst, problem)
    code = main(["solve", str(problem), "--method", "MAP", "--seed", "2"])
    assert code == 0


def test_solve_trace_output(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(gen_soc_instance(20, 42), problem)
    out = tmp_path / "trace.csv"
    code = main(["solve", str(problem), "--seed", "1", "--out", str(out), "--trace"])
    assert code == 0
    assert out.read_text().splitlines()[0] == "instance_seed,start_seed,method,iteration,gap"


def test_solve_failure_exit_code(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(gen_soc_instance(20, 42), problem)
    code = main(["solve", str(problem), "--method", "MAP", "--seed", "1",
                 "--max-iter", "1", "--tol", "1e-12"])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nope"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_bad_tolerance_is_a_usage_error(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    write_problem(gen_soc_instance(20, 42), problem)
    assert main(["solve", str(problem), "--tol", "nan"]) == 1
    assert main(["bench", "soc", "--n", "20", "--instances", "1", "--tol", "0"]) == 1
    assert main(["bench", "poly", "--n", "15", "--max-iter", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: tol must be positive and finite, got nan",
                   "crmfeas: error: tol must be positive and finite, got 0.0",
                   "crmfeas: error: max_iter must be an integer >= 1, got 0"]


def test_empty_grid_is_a_usage_error(capsys):
    assert main(["bench", "soc", "--n", "20", "--instances", "0"]) == 1
    assert main(["bench", "poly", "--n", "15", "--starts", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: instance and start counts must be positive"] * 2


@pytest.mark.parametrize("experiment", ["soc", "poly"])
def test_dimension_below_two_is_a_usage_error(capsys, experiment):
    assert main(["bench", experiment, "--n", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: dimension --n must be at least 2, got 1"]


@pytest.mark.parametrize("experiment", ["soc", "poly"])
def test_negative_seed_is_a_usage_error(capsys, experiment):
    assert main(["bench", experiment, "--n", "5", "--instances", "1", "--starts", "1",
                 "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: --seed must be nonnegative, got -1"]


@pytest.mark.parametrize("experiment", ["soc", "poly"])
def test_jobs_below_one_is_a_usage_error(capsys, experiment):
    assert main(["bench", experiment, "--n", "5", "--instances", "1", "--starts", "1",
                 "--jobs", "-2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: --jobs must be at least 1, got -2"]


RUNS_HEADER = "instance_seed,start_seed,method,iterations,final_gap,status\n"


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param(RUNS_HEADER, id="empty"),
    pytest.param("seed,method,iterations\n1,CRM,3\n", id="columns"),
    pytest.param(RUNS_HEADER + "1,2,CRM,three,1e-7,converged\n", id="row"),
    pytest.param(RUNS_HEADER + "1,2,CRM\n", id="short"),
])
def test_profile_errors_are_usage_errors(tmp_path, capsys, content):
    runs = tmp_path / "runs.csv"
    if content is not None:
        runs.write_text(content)
    assert main(["profile", str(runs)]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("crmfeas: error: ")
    assert "Traceback" not in err


def test_a_problem_with_no_infeasible_start_is_a_usage_error(tmp_path, capsys):
    # every start is drawn at norm 5 to 15, inside both balls
    problem = tmp_path / "balls.json"
    write_problem(ProblemInstance(kind=Kind.POLYHEDRAL, sets=[Ball([0.0, 0.0], 100.0),
                                                              Ball([0.0, 0.0], 200.0)],
                                  affine=None, n=2, m=2, seed=0, certificate=[0.0, 0.0]),
                  problem)
    assert main(["solve", str(problem)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["crmfeas: error: could not draw an infeasible start in 1000 attempts"]


@pytest.mark.parametrize("content", [
    None,  # no such file
    "{not json",
    '{"schema": 2}',
    '{"schema": 1, "kind": "polyhedral", "sets": [{"type": "soc", "n": [3]}]}',
    *(pytest.param(json.dumps(doc), id=name) for name, (doc, _) in INCONSISTENT_PROBLEMS.items()),
    *(pytest.param(json.dumps(doc), id=name) for name, (doc, _) in NON_INTEGER_FIELDS.items()),
])
def test_bad_problem_file_is_a_usage_error(tmp_path, capsys, content):
    problem = tmp_path / "problem.json"
    if content is not None:
        problem.write_text(content)
    assert main(["solve", str(problem)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crmfeas: error: ")


_OUT_COMMANDS = {
    "solve": ["solve", "problem.json", "--seed", "1"],
    "bench": ["bench", "poly", "--n", "10", "--instances", "1", "--starts", "1", "--trace"],
    "profile": ["profile", "runs.csv"],
}


@pytest.mark.parametrize("command, out", [
    *(pytest.param(command, out, id=f"{name}-{kind}") for name, command in _OUT_COMMANDS.items()
      for out, kind in (("missing/x.csv", "missing-directory"), (".", "directory"))),
    # bench --trace writes its traces to <out>.traces.csv, made a directory here
    pytest.param(_OUT_COMMANDS["bench"], "x.csv", id="bench-traces-directory"),
])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv.traces.csv").mkdir()
    write_problem(gen_soc_instance(20, 42), tmp_path / "problem.json")
    (tmp_path / "runs.csv").write_text(RUNS_HEADER + "1,2,CRM,3,1e-7,converged\n")
    assert main(command + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing solved, no grid run
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("crmfeas: error: --out ")
