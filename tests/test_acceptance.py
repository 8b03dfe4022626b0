"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two benchmark grids
reproduce the reference experiment scales (n = 200; 100 instances x 10 starts
for the cone grid, 1 instance x 20 starts for the polyhedral product grid)
with pinned base seeds, so the whole suite is deterministic.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from numpy import linalg as la

from crmfeas.bench import bench_polyhedral_prod, bench_soc
from crmfeas.circumcenter import circumcenter
from crmfeas.errors import DegenerateConfiguration
from crmfeas.instances import derive_seed, gen_polyhedral_instance, gen_soc_instance, gen_start
from crmfeas.methods import Method, SolverConfig, Status, crm_step, run
from crmfeas.product_space import DiagonalSubspace, ProductSet, lift, restrict, run_prod
from crmfeas.sets import Ball, Hyperplane
from conftest import (
    ANCHORED_KINDS,
    anchored_affine,
    anchored_point,
    anchored_set,
    assert_fejer_along,
    point_in_affine,
    recorded,
)
from oracle import crm_oracle

SOC_SEED = 2024
POLY_SEED = 137
SOC_GRID = dict(num_instances=100, starts_per_instance=10, n=200, tol=1e-6,
                max_iter=100_000, base_seed=SOC_SEED)
POLY_GRID = dict(num_instances=1, starts_per_instance=20, n=200, tol=1e-6,
                 max_iter=100_000, base_seed=POLY_SEED)
# (instance_seed, start_seed, method, iterations, status) of every run of both
# grids; a change that alters a row lists and explains it in CHANGES.md.
# final_gap is left out because its last bits move under rounding changes.
GOLDEN_GRIDS = Path(__file__).parent / "data" / "golden_grids.csv"


@pytest.fixture(scope="module")
def soc_result():
    return bench_soc(**SOC_GRID)


@pytest.fixture(scope="module")
def poly_result():
    return bench_polyhedral_prod(**POLY_GRID)


def test_grids_match_golden_table(soc_result, poly_result):
    with open(GOLDEN_GRIDS, encoding="utf-8", newline="") as f:
        golden = [(int(r["instance_seed"]), int(r["start_seed"]), r["method"],
                   int(r["iterations"]), r["status"]) for r in csv.DictReader(f)]
    runs = [(r.instance_seed, r.start_seed, r.method, r.iterations, r.status)
            for r in soc_result.records + poly_result.records]
    assert len(golden) == 3060
    changed = [(g, r) for g, r in zip(golden, runs) if g != r]
    assert len(runs) == len(golden) and not changed, changed[:5]
    print(f"\nGOLDEN PASS — all {len(golden)} runs of both grids match "
          "tests/data/golden_grids.csv in iterations and status")


def test_criterion_1_one_step_hyperplane_convergence():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 51))
        anchor = 2.0 * rng.standard_normal(dim)
        H = Hyperplane(rng.standard_normal(dim) + 0.05, 0.0)
        H = Hyperplane(H.a, float(H.a @ anchor))  # pass through the anchor
        U = anchored_affine(rng, anchor)
        z0 = point_in_affine(rng, U, anchor)
        if la.norm(U.project(z0) - H.project(z0)) <= 1e-6:
            continue
        trace = run(H, U, z0, SolverConfig(tol=1e-10, method=Method.CRM))
        assert trace.status is Status.CONVERGED
        assert trace.iterations == 1
        assert trace.gaps[-1] < 1e-10
        checked += 1
    print(f"\nACCEPTANCE 1 PASS — one-step hyperplane convergence on {checked} "
          "random triples (dims 2-50): Converged, exactly 1 iteration, gap < 1e-10")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    per_kind = 250
    for kind in ANCHORED_KINDS:
        for _ in range(per_kind):
            dim = int(rng.integers(2, 21))
            anchor = anchored_point(rng, dim, kind)
            K = anchored_set(rng, kind, anchor)
            U = anchored_affine(rng, anchor)
            z = point_in_affine(rng, U, anchor)
            step = crm_step(K, U, z)  # circumcenter route; must never degenerate
            oracle = crm_oracle(K, U, z)  # stacked linear-solve route
            assert la.norm(step - oracle) <= 1e-8 * (1.0 + la.norm(z))
    print(f"\nACCEPTANCE 2 PASS — crm_step matches the supporting-hyperplane "
          f"oracle on {per_kind * len(ANCHORED_KINDS)} random triples "
          "(ball/halfspace/box/cone) within 1e-8*(1+||z||)")


def test_criterion_3_fejer_along_benchmark_runs():
    # every CRM iterate of both grids, against the instance certificate
    total = 0
    for i in range(SOC_GRID["num_instances"]):
        inst = gen_soc_instance(SOC_GRID["n"], derive_seed(SOC_SEED, 1, i))
        s = inst.certificate
        for j in range(SOC_GRID["starts_per_instance"]):
            start = gen_start(inst, derive_seed(SOC_SEED, 2, i, j), min_gap=1e-6)
            _, iterates = recorded(run, inst.sets[0], inst.affine, start.projected,
                                   SolverConfig(tol=1e-6, method=Method.CRM))
            assert_fejer_along(iterates, s)
            total += 1
    inst = gen_polyhedral_instance(POLY_GRID["n"], derive_seed(POLY_SEED, 1, 0))
    W = ProductSet(inst.sets)
    s_lifted = lift(inst.certificate, inst.m)
    for j in range(POLY_GRID["starts_per_instance"]):
        start = gen_start(inst, derive_seed(POLY_SEED, 2, 0, j), min_gap=1e-6)
        _, iterates = recorded(run_prod, W, start.projected,
                               SolverConfig(tol=1e-6, method=Method.CRM))
        assert_fejer_along(iterates, s_lifted)
        total += 1
    print(f"\nACCEPTANCE 3 PASS — Fejér inequality held at every iterate of all "
          f"{total} CRM benchmark runs (slack 1e-9*scale, zero violations)")


def test_criterion_4_distance_ordering_and_step_structure():
    rng = np.random.default_rng(404)
    checked = 0
    inst_cache = [gen_soc_instance(int(rng.integers(10, 41)), derive_seed(404, 0, k))
                  for k in range(40)]
    while checked < 1000:
        inst = inst_cache[checked % len(inst_cache)]
        K, U, s = inst.sets[0], inst.affine, inst.certificate
        z = point_in_affine(rng, U, s, spread=4.0)
        if la.norm(U.project(z) - K.project(z)) <= 1e-6:
            continue
        c = crm_step(K, U, z)
        m = U.project(K.project(z))
        d = 0.5 * (z + U.reflect(K.reflect(z)))
        assert la.norm(c - s) <= la.norm(m - s) + 1e-9
        assert la.norm(m - s) <= la.norm(d - s) + 1e-9
        u = c - z
        v = m - z
        r = float(v @ u) / float(u @ u)
        assert la.norm(v - r * u) < 1e-9  # collinear
        assert -1e-10 <= r <= 1.0 + 1e-10  # MAP point between z and the CRM point
        assert la.norm(m - 0.5 * (K.project(z) + d)) <= 1e-9  # midpoint identity
        checked += 1
    print("\nACCEPTANCE 4 PASS — distance ordering CRM <= MAP <= DRM plus "
          "collinearity/midpoint identities at 1000 random points in U")


def test_criterion_5_table1_scale_reproduction(soc_result):
    stats = {s.method: s for s in soc_result.stats}
    crm, drm, mp = stats["CRM"], stats["DRM"], stats["MAP"]
    assert all(s.failures == 0 for s in soc_result.stats)
    assert 3.0 <= crm.mean <= 7.0
    assert crm.max <= 10
    assert mp.mean >= 10.0 * crm.mean
    assert drm.mean >= 1.5 * crm.mean
    print("\nACCEPTANCE 5 PASS — cone grid at reference scale "
          f"(100x10, n=200, eps=1e-6): CRM {crm.mean:.3f}/{crm.min}/{crm.median}/{crm.max}, "
          f"DRM {drm.mean:.3f}/{drm.min}/{drm.median}/{drm.max}, "
          f"MAP {mp.mean:.3f}/{mp.min}/{mp.median}/{mp.max} "
          f"(reference rows: 4.727/3/5/6, 11.602/4/8/83, 83.981/4/32/1063)")


def test_criterion_6_table2_scale_reproduction(poly_result):
    stats = {s.method: s for s in poly_result.stats}
    crm, drm, mp = stats["CRM-prod"], stats["DRM-prod"], stats["MAP-prod"]
    assert all(s.failures == 0 for s in poly_result.stats)
    assert crm.mean <= 200.0
    assert mp.mean >= 10.0 * crm.mean
    assert drm.mean >= 5.0 * crm.mean
    print("\nACCEPTANCE 6 PASS — polyhedral product grid (1x20, n=200, eps=1e-6): "
          f"CRM-prod {crm.mean:.2f}/{crm.min}/{crm.median}/{crm.max}, "
          f"DRM-prod {drm.mean:.2f}/{drm.min}/{drm.median}/{drm.max}, "
          f"MAP-prod {mp.mean:.2f}/{mp.min}/{mp.median}/{mp.max} "
          f"(reference rows: 41.5/19/38/89, 1441.15/1036/1470.5/1586, 2768.3/2534/2787/2952)")


def test_criterion_7_crm_never_exceeds_map(soc_result):
    by_run = {}
    for r in soc_result.records:
        by_run.setdefault((r.instance_seed, r.start_seed), {})[r.method] = r.iterations
    violations = sum(1 for g in by_run.values() if g["CRM"] > g["MAP"])
    assert violations == 0
    print(f"\nACCEPTANCE 7 PASS — CRM <= MAP iterations on every one of "
          f"{len(by_run)} cone-grid runs (zero violations)")


def test_criterion_8_prod_d_invariance_two_balls():
    W = ProductSet([Ball([-1.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])
    z0 = lift([0.0, 2.0], 2)
    D = DiagonalSubspace(2, 2)
    trace, iterates = recorded(run_prod, W, z0, SolverConfig(tol=1e-6, method=Method.CRM))
    assert trace.status is Status.CONVERGED
    for z in iterates:
        assert la.norm(z - D.project(z)) <= 1e-8
    x = restrict(trace.final_point, 2)
    for ball in W.factors:
        assert ball.contains(x, tol=1e-6)
    print(f"\nACCEPTANCE 8 PASS — CRM-prod on the two-ball problem stayed within "
          f"1e-8 of the diagonal for all {trace.iterations + 1} iterates and "
          "reached a point feasible for both balls to 1e-6")


def test_criterion_9_circumcenter_property_suite():
    rng = np.random.default_rng(909)
    for _ in range(10_000):
        dim = int(rng.integers(1, 11))
        q = int(rng.integers(0, min(3, dim) + 1))
        pts = [3.0 * rng.standard_normal(dim) for _ in range(q + 1)]
        res = circumcenter(pts)
        c = res.center
        scale = 1.0
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                scale = max(scale, 1.0 + la.norm(pts[a] - pts[b]))
        d0 = la.norm(pts[0] - c)
        assert all(abs(la.norm(p - c) - d0) < 1e-8 * scale for p in pts)
        if q:
            # distance to the affine hull, via an orthonormal basis of the
            # direction span (raw lstsq coefficients explode on thin simplices)
            V = np.array([p - pts[0] for p in pts[1:]])
            Q, _ = la.qr(V.T)
            w = c - pts[0]
            assert la.norm(w - Q @ (Q.T @ w)) < 1e-10 * scale

    degenerate = 0
    for _ in range(200):
        dim = int(rng.integers(1, 11))
        p0 = rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        while not np.any(d):
            d = rng.standard_normal(dim)
        pts = [p0, p0 + 1.0 * d, p0 + 2.5 * d]  # distinct collinear
        with pytest.raises(DegenerateConfiguration):
            circumcenter(pts)
        degenerate += 1
    print("\nACCEPTANCE 9 PASS — equidistance (<1e-8*scale) and hull membership "
          f"(<1e-10*scale) on 10000 random point sets; DegenerateConfiguration "
          f"raised on all {degenerate} constructed collinear cases")
