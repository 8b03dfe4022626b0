"""Benchmark of crmfeas: per-method solve time on three workloads.

    python3 perfbench/run.py --workload {cone,poly,mixed} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each workload runs in fresh worker processes
(perfbench/worker.py), one caller solving problems back to back on a single
core, with BLAS and OpenMP pinned to one thread. ``--trace 0`` times set-up in
SETUP_SAMPLES fresh processes, the last MEASURE_PROCESSES of which then solve
the workload in whole rounds for S seconds between them, and prints the
end-to-end metrics: the median set-up time and, per method, the mean summed
solve time of a round. Both are given at the host's reference speed: each
time is divided by the slowdown that a fixed reference computation
(perfbench/calibrate.py) measures beside it.
``--trace 1`` prints the per-layer metrics of one traced round. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when every run finished.
Detailed reports go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed; the median is reported
# Processes that share the run's seconds of solving; each also gives a set-up
# sample. A process's solve times stay within 1-2 % of each other from round to
# round, but differ by up to 12 % from those of the next process, so the run
# spreads its solving over several.
MEASURE_PROCESSES = 4
TIME_LIMIT_S = 170.0  # every worker is killed by then, within the 180 s a run may take
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def worker(mode, args, deadline, seconds=0.0) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to ``ready``, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), str(seconds)] + (["--small"] if args.small else [])
    env = dict(os.environ, **THREAD_ENV)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            if setup_s is None and line == "ready\n":
                setup_s = perf_counter() - t0
            last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise RunFailed(f"worker {mode} exited with code {code}")
    return setup_s, json.loads(last)


def _at_reference_speed(rounds, method) -> float:
    """Mean over rounds of the method's summed solve time, each round's sum
    divided by the host's slowdown measured over that round."""
    return statistics.mean(r["seconds"][method] / r["slowdown"] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few problems per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crmfeas", "__init__.py")):
        print(f"no crmfeas sources under {os.path.join(ROOT, 'src')}: run from a checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            _, report = worker("trace", args, deadline, args.seconds)
            rounds = report["rounds"]
            metrics = report.pop("layers")
        else:
            setups = [worker("setup", args, deadline)
                      for _ in range(SETUP_SAMPLES - MEASURE_PROCESSES)]
            measured = [worker("measure", args, deadline, args.seconds / MEASURE_PROCESSES)
                        for _ in range(MEASURE_PROCESSES)]
            setups += measured
            report = measured[0][1]
            rounds = [r for _, rep in measured for r in rep["rounds"]]
            report.update(rounds=rounds,
                          peak_rss_mb=max(rep["peak_rss_mb"] for _, rep in measured),
                          one_step_violations=sum(rep["one_step_violations"] for _, rep in measured))
            metrics = {
                "setup_s": {"value": statistics.median(s / r["setup_slowdown"] for s, r in setups),
                            "unit": "s"},
                "crm_s": {"value": _at_reference_speed(rounds, "CRM"), "unit": "s"},
                "drm_s": {"value": _at_reference_speed(rounds, "DRM"), "unit": "s"},
                "map_s": {"value": _at_reference_speed(rounds, "MAP"), "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
            report["setup_samples"] = [{"seconds": s, "slowdown": r["setup_slowdown"]}
                                       for s, r in setups]
            del report["setup_slowdown"]
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    correct = (report.get("traced_counts_match", True) and report["one_step_violations"] == 0
               and all(r["wrong"] == 0 for r in rounds)
               and all(r["iterations"] == rounds[0]["iterations"] for r in rounds))
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump(dict(report, result=result), f, indent=1)
    print("machine " + json.dumps(report["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
