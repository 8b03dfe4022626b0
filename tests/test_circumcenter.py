"""Circumcenter solve, supporting hyperplane, and the projection oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import linalg as la

import crmfeas
from crmfeas.circumcenter import circumcenter
from crmfeas.errors import DegenerateConfiguration, DimensionMismatch, NotInAffine
from crmfeas.instances import derive_seed, gen_polyhedral_instance, gen_start
from crmfeas.methods import crm_step
from crmfeas.product_space import DiagonalSubspace, ProductSet, crm_prod_step
from crmfeas.sets import AffineSubspace, Ball, Halfspace
from conftest import (
    ANCHORED_KINDS,
    anchored_affine,
    anchored_point,
    anchored_set,
    point_in_affine,
)
from oracle import InconsistentIntersection, crm_oracle, supporting_hyperplane


class TestCircumcenter:
    def test_right_triangle(self):
        res = circumcenter([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
        assert np.allclose(res.center, [1.0, 1.0], atol=1e-12)
        assert res.basis_rank == 2

    def test_coincident_points(self):
        p = np.array([0.3, -1.2, 4.0])
        res = circumcenter([p, p, p])
        assert np.array_equal(res.center, p)
        assert res.basis_rank == 0
        assert res.residual == 0.0

    def test_collinear_distinct_raises(self):
        with pytest.raises(DegenerateConfiguration):
            circumcenter([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])

    # the residual is in squared units: a length scale, or a floor of 1,
    # accepts a collinear triple of points closer than 1 apart
    @pytest.mark.parametrize("s", [1e-100, 1e-5, 1.0, 1e5, 1e100])
    def test_degeneracy_is_decided_at_every_scale(self, s):
        with pytest.raises(DegenerateConfiguration):
            circumcenter([(0.0, 0.0), (s, 0.0), (2.0 * s, 0.0)])
        res = circumcenter([(0.0, 0.0), (2.0 * s, 0.0), (0.0, 2.0 * s)])
        assert np.allclose(res.center / s, [1.0, 1.0], rtol=0.0, atol=1e-12)

    def test_two_points_midpoint(self):
        res = circumcenter([(0.0, 0.0), (2.0, 0.0)])
        assert np.allclose(res.center, [1.0, 0.0])
        assert res.basis_rank == 1

    def test_single_point(self):
        res = circumcenter([(5.0, 6.0)])
        assert np.allclose(res.center, [5.0, 6.0])
        assert res.basis_rank == 0

    def test_duplicate_point_collapses_to_midpoint(self):
        z = np.array([1.0, 1.0])
        w = np.array([3.0, 5.0])
        res = circumcenter([z, z, w])
        assert np.allclose(res.center, 0.5 * (z + w), atol=1e-12)

    def test_redundant_point_on_common_circle(self):
        # four points on one circle: more directions than the hull dimension,
        # but the configuration is consistent and the center is recovered
        center = np.array([0.5, -1.5])
        angles = [0.3, 1.1, 2.8, 4.4]
        pts = [center + 2.0 * np.array([np.cos(a), np.sin(a)]) for a in angles]
        res = circumcenter(pts)
        assert np.allclose(res.center, center, atol=1e-9)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            circumcenter([])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            circumcenter([(0.0, 0.0), (1.0, 2.0, 3.0)])

    def test_equidistance_and_hull_membership_random(self, rng):
        for _ in range(400):
            dim = int(rng.integers(1, 11))
            q = int(rng.integers(0, min(3, dim) + 1))
            pts = [3.0 * rng.standard_normal(dim) for _ in range(q + 1)]
            res = circumcenter(pts)
            c = res.center
            scale = 1.0 + max(
                la.norm(p - p2) for p in pts for p2 in pts
            ) if len(pts) > 1 else 1.0
            d0 = la.norm(pts[0] - c)
            assert all(abs(la.norm(p - c) - d0) < 1e-8 * scale for p in pts)
            if q:
                V = np.array([p - pts[0] for p in pts[1:]])
                Q, _ = la.qr(V.T)
                w = c - pts[0]
                assert la.norm(w - Q @ (Q.T @ w)) < 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
)
def test_two_point_circumcenter_is_midpoint(a, b):
    pa, pb = np.asarray(a), np.asarray(b)
    res = circumcenter([pa, pb])
    assert np.allclose(res.center, 0.5 * (pa + pb), atol=1e-9)


class TestSupportingHyperplane:
    def test_ball_exterior(self):
        K = Ball([0.0, 0.0], 1.0)
        z = np.array([2.0, 1.0])
        H = supporting_hyperplane(K, z)
        proj = z / la.norm(z)
        # normal is parallel to z - P_K(z), i.e. to z itself here
        cross = H.a[0] * z[1] - H.a[1] * z[0]
        assert abs(cross) < 1e-12
        # the hyperplane passes through the projection
        assert abs(float(H.a @ proj) - H.b) < 1e-12
        # for a ball centered at the origin: a^T P = ||P|| * ||a||
        assert abs(H.b - la.norm(proj) * la.norm(H.a)) < 1e-12

    def test_halfspace_boundary(self):
        K = Halfspace([1.0, 0.0], 0.0)
        H = supporting_hyperplane(K, [3.0, 5.0])
        assert np.allclose(H.project([3.0, 5.0]), [0.0, 5.0], atol=1e-12)
        assert abs(H.a[1]) < 1e-14  # normal parallel to (1, 0)

    def test_interior_point_returns_none(self):
        assert supporting_hyperplane(Ball([0.0, 0.0], 1.0), [0.5, 0.0]) is None


class TestCrmOracle:
    def test_ball_line(self):
        K = Ball([0.0, 0.0], 1.0)
        U = AffineSubspace([[0.0, 1.0]], [1.0])
        out = crm_oracle(K, U, [2.0, 1.0])
        assert np.allclose(out, [(np.sqrt(5) - 1) / 2, 1.0], atol=1e-12)

    def test_fixed_point_in_intersection(self, rng):
        K = Ball([0.0, 0.0], 2.0)
        U = AffineSubspace([[0.0, 1.0]], [1.0])
        z = np.array([0.5, 1.0])  # inside the ball, on the line
        assert np.array_equal(crm_oracle(K, U, z), z)

    def test_already_feasible_halfspace(self):
        K = Halfspace([0.0, 1.0], 0.0)  # y <= 0
        U = AffineSubspace([[0.0, 1.0]], [0.0])  # x-axis
        z = np.array([3.0, 0.0])
        assert np.array_equal(crm_oracle(K, U, z), z)

    def test_not_in_affine(self):
        K = Ball([0.0, 0.0], 1.0)
        U = AffineSubspace([[0.0, 1.0]], [1.0])
        with pytest.raises(NotInAffine):
            crm_oracle(K, U, [0.0, 2.0])

    def test_inconsistent_intersection(self):
        # supporting hyperplane {y = 1} is parallel to U = {y = 3}
        K = Ball([0.0, 0.0], 1.0)
        U = AffineSubspace([[0.0, 1.0]], [3.0])
        with pytest.raises(InconsistentIntersection):
            crm_oracle(K, U, [0.0, 3.0])

    def test_oracle_matches_circumcenter_step(self, rng):
        # the characterization: circ{z, R_K z, R_U R_K z} = P_{H_z ∩ U}(z),
        # and the closed-form crm_step equals that circumcenter
        checked = 0
        for _ in range(300):
            dim = int(rng.integers(2, 12))
            kind = ANCHORED_KINDS[int(rng.integers(0, len(ANCHORED_KINDS)))]
            anchor = anchored_point(rng, dim, kind)
            K = anchored_set(rng, kind, anchor)
            U = anchored_affine(rng, anchor)
            z = point_in_affine(rng, U, anchor)
            step = crm_step(K, U, z)
            oracle = crm_oracle(K, U, z)
            assert la.norm(step - oracle) <= 1e-8 * (1.0 + la.norm(z))
            rk = K.reflect(z)
            circ = U.project(circumcenter((z, rk, U.reflect(rk))).center)
            assert la.norm(step - circ) <= 1e-10 * (1.0 + la.norm(z))
            checked += 1
        assert checked == 300

    def test_crm_prod_step_matches_circumcenter_on_poly_grid_starts(self):
        # the reference polyhedral grid: instance 0 of base seed 137, 20 starts
        inst = gen_polyhedral_instance(200, derive_seed(137, 1, 0))
        W = ProductSet(inst.sets)
        D = DiagonalSubspace(W.block_dim, W.m)
        for j in range(20):
            z = gen_start(inst, derive_seed(137, 2, 0, j), min_gap=1e-6).projected
            rw = W.reflect(z)
            circ = D.project(circumcenter((z, rw, D.reflect(rw))).center)
            assert la.norm(crm_prod_step(W, z) - circ) <= 1e-10 * (1.0 + la.norm(z))


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures.process"])
def test_import_leaves_scipy_unloaded(module):
    # the package needs numpy only; scipy is not a dependency, and the process
    # pool is loaded only by a grid run with more than one job
    src = str(Path(crmfeas.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", f"import crmfeas, sys; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
