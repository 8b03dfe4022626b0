"""Step operators, comparison/Fejér structure, and the iteration driver."""

import itertools
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import linalg as la

from crmfeas.circumcenter import RESIDUAL_TOL
from crmfeas.errors import DegenerateConfiguration, NotInAffine
from crmfeas.instances import derive_seed, gen_soc_instance, gen_start
from crmfeas.methods import (
    FIXED_POINT_TOL,
    Method,
    SolverConfig,
    Status,
    _ConeAffine,
    _crm_coefficient,
    _drive,
    _problem,
    _TwoSets,
    crm_step,
    run,
)
from crmfeas.product_space import DiagonalSubspace, ProductSet, lift, restrict, run_prod
from crmfeas.sets import AffineSubspace, Ball, Box, Halfspace, Hyperplane, SecondOrderCone
from conftest import (
    ANCHORED_KINDS,
    anchored_affine,
    anchored_point,
    anchored_set,
    drive_recorded,
    point_in_affine,
    recorded,
)
from oracle import full_crm_coefficient

BALL = Ball([0.0, 0.0], 1.0)
LINE = AffineSubspace([[0.0, 1.0]], [1.0])  # y = 1
Z = np.array([2.0, 1.0])
SQ5 = np.sqrt(5.0)


class CountingAffine(AffineSubspace):
    """An affine subspace that counts its projections, checked or not, and
    its reflections."""

    projects = reflects = 0

    def _project(self, x):
        self.projects += 1
        return super()._project(x)

    def reflect(self, x):
        self.reflects += 1
        return super().reflect(x)


def cone_grid_case(i):
    """``(K, U, z0)`` of instance ``i``, start 0 of the reference cone grid
    (seed 2024)."""
    inst = gen_soc_instance(200, derive_seed(2024, 1, i))
    z0 = gen_start(inst, derive_seed(2024, 2, i, 0), min_gap=1e-6).projected
    return inst.sets[0], inst.affine, z0


def one_step(method):
    """The trace and the iterates of one iteration of ``method`` on BALL ∩ LINE
    from Z."""
    cfg = SolverConfig(tol=1e-12, max_iter=1, method=method)
    return recorded(run, BALL, LINE, Z, cfg)


def stacked_projection(H, U, z):
    """Independent oracle: project z onto {x: U.A x = U.b, H.a^T x = H.b}."""
    M = np.vstack([U.A, H.a])
    rhs = np.concatenate([U.b, [H.b]]) - M @ z
    delta, *_ = la.lstsq(M, rhs, rcond=None)
    return z + delta


class TestStepExamples:
    def test_crm_ball_line(self):
        assert np.allclose(crm_step(BALL, LINE, Z), [(SQ5 - 1) / 2, 1.0], atol=1e-10)

    def test_map_ball_line(self):
        assert np.allclose(one_step(Method.MAP)[1][1], [2 / SQ5, 1.0], atol=1e-12)

    def test_drm_ball_line(self):
        # the driver's DRM iterate reflects through U onto the textbook one
        textbook = LINE.reflect(one_step(Method.DRM)[1][1])
        assert np.allclose(textbook, [2 / SQ5, 2 - 1 / SQ5], atol=1e-12)
        assert np.allclose(textbook, [0.8944272, 1.5527864], atol=1e-6)

    def test_gap_ball_line(self):
        for method in Method:
            assert one_step(method)[0].gaps[0] == pytest.approx(SQ5 - 1, abs=1e-12)

    def test_fixed_points(self, rng):
        for kind in ANCHORED_KINDS:
            anchor = anchored_point(rng, 4, kind)
            K = anchored_set(rng, kind, anchor)
            U = anchored_affine(rng, anchor)
            z = U.project(anchor)  # anchor itself lies in U
            steps = (crm_step(K, U, z), U.project(K.project(z)),
                     0.5 * (z + U.reflect(K.reflect(z))))
            for step in steps:
                assert la.norm(step - z) <= 1e-10 * (1.0 + la.norm(z))
            assert la.norm(U.project(z) - K.project(z)) <= 1e-10

    def test_map_idempotent_when_k_equals_u(self, rng):
        U = anchored_affine(rng, rng.standard_normal(5))
        z = 3.0 * rng.standard_normal(5)
        assert np.allclose(U.project(U.project(z)), U.project(z), atol=1e-12)

    def test_drm_whole_space_collapses_to_projection(self, rng):
        whole = Box([-1e9] * 2, [1e9] * 2)
        z = 5.0 * rng.standard_normal(2)
        drm = 0.5 * (z + LINE.reflect(whole.reflect(z)))
        assert np.allclose(drm, LINE.project(z), atol=1e-10)

    def test_crm_requires_point_in_affine(self):
        with pytest.raises(NotInAffine):
            crm_step(BALL, LINE, [2.0, 3.0])

    def test_crm_one_step_for_hyperplane(self, rng):
        # hyperplane target: a single CRM step lands exactly on H ∩ U
        for _ in range(30):
            dim = int(rng.integers(2, 10))
            anchor = 2.0 * rng.standard_normal(dim)
            H = anchored_set(rng, "hyperplane", anchor)
            U = anchored_affine(rng, anchor)
            z = point_in_affine(rng, U, anchor)
            out = crm_step(H, U, z)
            expected = stacked_projection(H, U, z)
            assert la.norm(out - expected) <= 1e-9 * (1.0 + la.norm(z))


class TestComparisonStructure:
    def _sample(self, rng):
        dim = int(rng.integers(2, 12))
        kind = ANCHORED_KINDS[int(rng.integers(0, len(ANCHORED_KINDS)))]
        anchor = anchored_point(rng, dim, kind)
        K = anchored_set(rng, kind, anchor)
        U = anchored_affine(rng, anchor)
        s = U.project(anchor)
        if not K.contains(s, 1e-9):
            return None
        z = point_in_affine(rng, U, anchor)
        if la.norm(U.project(z) - K.project(z)) < 1e-6:
            return None
        return K, U, z, s

    def test_fejer_inequality(self, rng):
        done = 0
        while done < 150:
            case = self._sample(rng)
            if case is None:
                continue
            K, U, z, s = case
            c = crm_step(K, U, z)
            scale = 1.0 + la.norm(z - s) ** 2
            assert la.norm(c - s) ** 2 <= la.norm(z - s) ** 2 - la.norm(z - c) ** 2 + 1e-9 * scale
            done += 1

    def test_ordering_collinearity_midpoint(self, rng):
        done = 0
        while done < 150:
            case = self._sample(rng)
            if case is None:
                continue
            K, U, z, s = case
            c = crm_step(K, U, z)
            m = U.project(K.project(z))
            d = 0.5 * (z + U.reflect(K.reflect(z)))
            assert la.norm(c - s) <= la.norm(m - s) + 1e-9
            assert la.norm(m - s) <= la.norm(d - s) + 1e-9
            # z, m, c collinear with m between z and c
            u = c - z
            v = m - z
            r = float(v @ u) / float(u @ u)
            assert la.norm(v - r * u) < 1e-9
            assert -1e-10 <= r <= 1.0 + 1e-10
            # m is the midpoint of P_K(z) and the DRM point
            assert la.norm(m - 0.5 * (K.project(z) + d)) <= 1e-10 * (1.0 + la.norm(z))
            done += 1


class TestDriver:
    def test_one_step_hyperplane_convergence(self, rng):
        anchor = np.array([1.0, -2.0, 0.5])
        H = Hyperplane([1.0, 1.0, 1.0], float(np.sum(anchor)))
        U = AffineSubspace([[1.0, 0.0, -1.0]], [float(anchor[0] - anchor[2])])
        z0 = point_in_affine(rng, U, anchor)
        cfg = SolverConfig(tol=1e-10, method=Method.CRM)
        trace = run(H, U, z0, cfg)
        assert trace.status is Status.CONVERGED
        assert trace.iterations == 1
        assert trace.gaps[-1] < 1e-10

    def test_feasible_start_zero_iterations(self):
        z0 = np.array([0.0, 1.0])  # the tangency point of BALL and LINE
        for method in (Method.CRM, Method.MAP, Method.DRM):
            trace = run(BALL, LINE, z0, SolverConfig(method=method))
            assert trace.status is Status.CONVERGED
            assert trace.iterations == 0
            assert np.allclose(trace.final_point, z0)

    def test_crm_ball_line_converges_to_tangency(self):
        cfg = SolverConfig(tol=1e-6, method=Method.CRM)
        trace, iterates = recorded(run, BALL, LINE, [2.0, 1.0], cfg)
        assert trace.status is Status.CONVERGED
        # gap ~ dist²/2 near the tangency point (0, 1)
        assert la.norm(trace.final_point - [0.0, 1.0]) <= 2 * np.sqrt(2 * cfg.tol)
        assert len(trace.gaps) == trace.iterations + 1
        assert len(iterates) == trace.iterations + 1
        assert all(np.allclose(it[1], 1.0, atol=1e-8) for it in iterates)

    def test_map_and_drm_converge_on_transversal_instance(self):
        ball = Ball([0.0, 0.5], 1.0)  # crosses y=1 transversally
        for method in (Method.MAP, Method.DRM):
            trace = run(ball, LINE, [4.0, 1.0], SolverConfig(method=method))
            assert trace.status is Status.CONVERGED
            assert ball.contains(LINE.project(trace.final_point), tol=2e-6)

    def test_max_iter_reached(self):
        cfg = SolverConfig(tol=1e-12, max_iter=3, method=Method.MAP)
        trace = run(BALL, LINE, [2.0, 1.0], cfg)
        assert trace.status is Status.MAX_ITER
        assert trace.iterations == 3
        assert len(trace.gaps) == 4

    # CRM ends DEGENERATE on empty intersections, within the iterations the
    # general circumcenter routine takes on them, and MAP once its iterate
    # repeats (without the check it ran to max_iter); U=None is the
    # product-space problem W ∩ D
    @pytest.mark.parametrize("method, K, U, z0, most", [
        # ball below the line y=3: H_z is parallel to U, the circumcenter
        # points become distinct collinear, the step degenerates
        (Method.CRM, BALL, AffineSubspace([[0.0, 1.0]], [3.0]), [0.0, 3.0], 0),
        (Method.CRM, BALL, AffineSubspace([[1.0, 1.0]], [10.0]), [10.0, 0.0], 107),
        (Method.CRM, Ball([0.0, 0.0, 0.0], 1.0), AffineSubspace([[1.0, 1.0, 0.0]], [10.0]),
         [10.0, 0.0, 3.0], 129),
        (Method.CRM, ProductSet([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)]),
         None, lift([0.0, 0.0], 2), 0),
        # the start is already a fixed point of P_U P_K
        (Method.MAP, BALL, AffineSubspace([[0.0, 1.0]], [3.0]), [0.0, 3.0], 1),
        # the iterate stops moving at iteration 383
        (Method.MAP, Ball([0.0, 0.0, 0.0], 1.0), AffineSubspace([[1.0, 1.0, 0.0]], [10.0]),
         [10.0, 0.0, 3.0], 383),
    ], ids=["parallel", "ball-line", "ball-plane", "prod-halfspaces",
            "map-parallel", "map-ball-plane"])
    def test_degenerate_status_on_empty_intersection(self, method, K, U, z0, most):
        cfg = SolverConfig(method=method)
        trace = run(K, U, z0, cfg) if U is not None else run_prod(K, z0, cfg)
        assert trace.status is Status.DEGENERATE
        assert trace.iterations <= most
        assert trace.gaps[-1] >= cfg.tol

    # empty problems from far-out starts, where the gap is within rounding of
    # the iterate's norm, so the CRM step returns the iterate itself; each ran
    # to max_iter on that repeated iterate (at unit scale the first ends
    # degenerate too), through the vector, cone-plane and product paths
    @pytest.mark.parametrize("K, U, z0, gap", [
        (Halfspace([1.0, 0.0, 0.0], -5.0), AffineSubspace([[1.0, 0.0, 0.0]], [0.0]),
         1e100 * np.array([0.3, 2.0, 1.0]), 5.0),
        (SecondOrderCone(3), AffineSubspace([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [-1.0, 0.0]),
         1e150 * np.array([0.3, 2.0, 1.0]), None),
        (ProductSet([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)]), None,
         lift([0.0, 1e20], 2), math.sqrt(2.0)),
    ], ids=["halfspace", "cone", "prod-halfspaces"])
    def test_crm_ends_degenerate_at_a_fixed_point_off_k(self, K, U, z0, gap):
        cfg = SolverConfig(max_iter=2000)
        trace = run(K, U, z0, cfg) if U is not None else run_prod(K, z0, cfg)
        assert (trace.status, trace.iterations) == (Status.DEGENERATE, 0)
        assert trace.gaps[0] >= cfg.tol
        if gap is not None:
            assert trace.gaps == [gap]
        if U is not None:  # the public step still returns z at its fixed point
            z = U.project(z0)
            assert crm_step(K, U, z) is z

    def test_nonfinite_status_when_the_gap_overflows(self):
        inf, nan = math.inf, math.nan
        # (K, U, z0, scale of the rounding of the gaps, expected traces); ball ∩
        # {y = 0.5}: the start is finite, but ||z - P_K(z)||^2 overflows, and the
        # first step lands at unit scale
        ball_line = (BALL, AffineSubspace([[0.0, 1.0]], [0.5]), [1e200, 0.5], 1.0, {
            Method.CRM: (Status.NONFINITE, 0, [inf]),
            Method.MAP: (Status.CONVERGED, 1, [inf, 0.0]),
            Method.DRM: (Status.CONVERGED, 2, [inf, 0.5, 0.0]),
        })
        # SOC ∩ {A x = b} in R^6 with rank 4 > n/2, from starts along one ray
        A = np.random.default_rng(5).standard_normal((4, 6))
        U = AffineSubspace(A, A @ [3.0, 1.0, 0.5, -1.0, 0.2, 0.3])
        assert U.rank == 4
        ray = np.array([1.0, 0.3, -0.2, 0.1, 0.4, -0.5])
        soc = SecondOrderCone(6)
        with np.errstate(over="ignore"):  # ||b||^2 overflows in the consistency check
            near_max = AffineSubspace([[1.0, 0.0]], [1.7e308])
        cases = [ball_line, (soc, U, 1e154 * ray, 1e154, {
            # huge but finite: no circumcenter in floating point
            Method.CRM: (Status.DEGENERATE, 0, [1.2624953449198822e153]),
            Method.MAP: (Status.MAX_ITER, 3, [1.2624953449198822e153, 1.123401264762107e153,
                                              1.018618347532659e153, 9.371345240871125e152]),
            Method.DRM: (Status.MAX_ITER, 3, [1.2624953449198818e153, 1.1701481924680493e153,
                                              1.0524872808639976e153, 9.202523631030325e152]),
        }), (soc, U, -1e154 * ray, 1e154, {
            # the gap is finite, ||R_K(z) - z||^2 overflows inside the CRM step
            Method.CRM: (Status.NONFINITE, 0, [1.1537947059153571e154]),
            Method.MAP: (Status.MAX_ITER, 3, [1.1537947059153571e154, 2.9094624075658264e152,
                                              1.0205992473080898e152, 5.979665487506524e151]),
            # the last gap is rounding of iterates near 1e153
            Method.DRM: (Status.MAX_ITER, 3, [1.1537947059153571e154, 4.1298343200241487e152,
                                              4.434527450422499e151, 1.801621935728339e137]),
        }), (soc, U, 1e155 * ray, 1e155, {
            # ||u||^2 overflows inside P_K: the gap is NaN; the MAP and CRM steps
            # reject P_K(z), the DRM step does not and its next gap cannot be measured
            Method.CRM: (Status.NONFINITE, 0, [nan]),
            Method.MAP: (Status.NONFINITE, 0, [nan]),
            Method.DRM: (Status.NONFINITE, 1, [nan, nan]),
        }), (Box([-1e308, -1.0], [1e308, 1.0]), near_max, [0.0, 0.0], 1.0, {
            # the DRM reflection 2 P_U(z) - z overflows; clipping it onto the box
            # would give a finite gap
            Method.CRM: (Status.DEGENERATE, 0, [inf]),
            Method.MAP: (Status.DEGENERATE, 1, [inf, inf]),
            Method.DRM: (Status.NONFINITE, 0, [nan]),
        })]
        for K, U, z0, scale, expected in cases:
            for method, (status, iterations, gaps) in expected.items():
                trace = run(K, U, z0, SolverConfig(method=method, max_iter=3))
                assert (trace.status, trace.iterations) == (status, iterations), (z0, method)
                assert len(trace.gaps) == len(gaps)
                assert np.allclose(trace.gaps, gaps, rtol=1e-12, atol=1e-12 * scale,
                                   equal_nan=True), (z0, method)

    def test_nonfinite_status_in_the_product_space(self):
        D = DiagonalSubspace(2, 2)
        compared = (ProductSet([BALL, Halfspace([0.0, 1.0], 0.5)]),
                    # closed-form sums, which are finite at [-inf, 0.5]
                    ProductSet([Halfspace([1.0, 0.0], 0.0), Halfspace([1.0, 1.0], 0.0)]))
        # one product per row kernel, hyperplanes for the generic one, and a
        # product whose group order permutes its blocks
        kernels = (ProductSet([BALL, Ball([1.0, 0.0], 2.0)]),
                   ProductSet([Box([-1.0, -1.0], [1.0, 1.0]), Box([0.0, 0.0], [2.0, 1.0])]),
                   ProductSet([SecondOrderCone(2)] * 3),
                   ProductSet([Hyperplane([1.0, 0.0], 0.0), Hyperplane([1.0, 1.0], 0.0)]),
                   ProductSet([BALL, Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([0.0, 1.0], 0.5),
                               SecondOrderCone(2), Ball([1.0, 0.0], 2.0)]))
        assert kernels[-1]._inner is not None
        for W in (*compared, *kernels):
            # the blockwise mean of the start overflows: no gap can be measured.
            # A RuntimeWarning on the way would fail the run (the suite makes
            # it an error), and max_iter ends a run that misses the overflow.
            for method, x0 in itertools.product(Method, ([1e308, 0.5], [-1e308, 0.5])):
                trace = run_prod(W, lift(x0, W.m), SolverConfig(method=method, max_iter=50))
                assert (trace.status, trace.iterations) == (Status.NONFINITE, 0), (W, x0)
                assert len(trace.gaps) == 1 and np.isnan(trace.gaps[0])
        for W in compared:
            # the gap overflows: the first CRM step overflows too, and the run
            # stops there as in R^(nm), while MAP-prod comes back and converges
            z0 = lift([1e200, 0.5], 2)
            for method in (Method.CRM, Method.MAP):
                cfg = SolverConfig(method=method)
                trace, ref = run_prod(W, z0, cfg), run(W, D, z0, cfg)
                assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
                assert len(trace.gaps) == len(ref.gaps) == trace.iterations + 1
                assert np.isinf(trace.gaps[0])
            assert ref.status is Status.CONVERGED and ref.iterations > 1

    def test_a_nan_that_a_map_prod_step_carries_ends_the_next_measurement(self):
        # x - c overflows for the ball, which projects x to [NaN, 0]: the gap
        # is NaN at a finite x, and the step carries the NaN into the next
        # iterate, [NaN, 0], whose measurement projects it onto the cone first
        W = ProductSet([Ball([-1.5e308, 0.0], 1.0), SecondOrderCone(2)])
        trace = run_prod(W, lift([8e307, 0.0], 2), SolverConfig(method=Method.MAP, max_iter=50))
        assert (trace.status, trace.iterations) == (Status.NONFINITE, 1)
        assert len(trace.gaps) == 2 and np.isnan(trace.gaps).all()

    def test_map_stall_needs_a_gap_above_the_rounding_of_the_iterate(self):
        # {x1 <= 0} x {x1 + x2 <= 0} meet; from this start the Cimmino iterate
        # stops moving at [-2.5e153, 2.5e153], a point of both halfspaces, with
        # a gap of 2.6e137 that is only its rounding: no proof of emptiness
        W = ProductSet([Halfspace([1.0, 0.0], 0.0), Halfspace([1.0, 1.0], 0.0)])
        trace = run_prod(W, lift([1e154, 1e154], 2), SolverConfig(method=Method.MAP, max_iter=200))
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, 200)
        assert 0.0 < trace.gaps[-1] < 1e-15 * la.norm(trace.final_point)

    def test_map_projects_onto_u_once_per_iteration(self):
        # MAP iterates lie in U, so the stopping gap needs no projection onto U
        U = CountingAffine([[0.0, 1.0]], [1.0])  # y = 1
        trace = run(Ball([0.0, 0.5], 1.0), U, [4.0, 1.0], SolverConfig(method=Method.MAP))
        assert trace.status is Status.CONVERGED
        assert trace.iterations > 1
        assert U.projects == trace.iterations + 1  # one per step, one for the start

    def test_drm_projects_onto_u_once_per_iteration(self):
        # the shadow P_U(z) serves both the gap and the step; no reflection
        U = CountingAffine([[0.0, 1.0]], [1.0])  # y = 1
        trace = run(Ball([0.0, 0.5], 1.0), U, [4.0, 1.0], SolverConfig(method=Method.DRM))
        assert trace.status is Status.CONVERGED
        assert trace.iterations > 1
        # one per visited iterate, one for the start, one confirming the last
        # shadow's distance to U
        assert (U.projects, U.reflects) == (trace.iterations + 3, 0)

    @pytest.mark.parametrize("case", ["ball-line", "cone-0", "cone-1", "cone-2"])
    def test_drm_iterates_reflect_onto_the_textbook_sequence(self, case):
        K, U, z0 = (BALL, LINE, Z) if case == "ball-line" else cone_grid_case(int(case[-1]))
        cfg = SolverConfig(method=Method.DRM)
        # the R^n iteration, which run replaces by coordinates on the cone cases
        trace, iterates = drive_recorded(_TwoSets(K, U, Method.DRM), U.project(z0), cfg)
        assert trace.status is Status.CONVERGED and trace.iterations > 1
        x = U.project(z0)
        for z, g in zip(iterates, trace.gaps):
            scale = 1e-12 * (1.0 + la.norm(x))
            assert la.norm(U.reflect(z) - x) <= scale
            assert abs(g - la.norm(U.project(x) - K.project(x))) <= scale
            x = 0.5 * (x + U.reflect(K.reflect(x)))  # textbook DRM step
        # the final point is the shadow of the last iterate
        assert np.array_equal(trace.final_point, U.project(iterates[-1]))
        TestConePlane.assert_same_run(K, U, z0, Method.DRM, (trace, iterates))

    # several sets meeting U are one product-space problem, U as the last factor
    def test_serial_driver(self):
        Ks = [Halfspace([1.0, 0.0], -1.0), Ball([0.0, 0.0], 3.0)]
        W = ProductSet([*Ks, LINE])
        trace = run_prod(W, lift([5.0, 1.0], W.m), SolverConfig(method=Method.CRM, tol=1e-8))
        assert trace.status is Status.CONVERGED
        x = restrict(trace.final_point, W.m)
        for K in W.factors:
            assert K.contains(x, tol=1e-6)

    def test_averaged_driver(self):
        Ks = [Ball([-1.0, 0.0], 1.5), Ball([1.0, 0.0], 1.5)]
        W = ProductSet([*Ks, LINE])
        trace = run_prod(W, lift([4.0, 1.0], W.m), SolverConfig(method=Method.CRM, tol=1e-7))
        assert trace.status is Status.CONVERGED
        x = restrict(trace.final_point, W.m)
        for K in W.factors:
            assert K.contains(x, tol=1e-6)

    def test_single_set_methods_reject_lists(self):
        with pytest.raises(ValueError):
            run([BALL, BALL], LINE, [2.0, 1.0], SolverConfig(method=Method.CRM))

    def test_config_validation(self):
        for tol in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(tol=tol)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    # NaN never reaches the limit, 2.5 would stop after 3 steps, and True is a bool
    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, 2.5, 3.0, True, np.True_, -1, "10"])
    def test_max_iter_must_be_an_integer_of_at_least_1(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(method=Method.DRM, max_iter=max_iter)

    def test_max_iter_may_be_a_numpy_integer(self):
        # the disjoint balls of the outcome table, which DRM-prod never solves
        W = ProductSet([Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)])
        for max_iter in (np.int64(3), np.uint8(3), 3):
            trace = run_prod(W, lift([0.3, 1.3], 2), SolverConfig(method=Method.DRM,
                                                                   max_iter=max_iter))
            assert (trace.iterations, trace.status) == (3, Status.MAX_ITER)


class ScriptedProblem:
    """A problem for ``_drive`` whose iterate ``k`` is the step count and
    whose gaps and R^n distances are scripted per iterate; ``dists=None``
    gives ``dist = None``. ``measured`` lists the iterates ``dist`` saw."""

    def __init__(self, gaps, dists):
        self.gaps, self.dists, self.measured = gaps, dists, []
        self.dist = None if dists is None else self._dist

    def measure(self, k):
        return k, self.gaps[k], None

    def _dist(self, k):
        self.measured.append(k)
        return self.dists[k]

    def start(self, k):
        return k

    def step(self, k, y, g, data):
        return k + 1

    def lift(self, k):
        return np.array([float(k)])


class TestGapConfirmation:
    """``_drive`` counts a gap below tol only once ``dist`` confirms it."""

    CFG = SolverConfig(tol=1e-6, max_iter=5, method=Method.CRM)

    def test_a_confirmed_gap_converges_on_the_measured_gap(self):
        problem = ScriptedProblem([1.0, 1e-9], {1: 1e-7})
        trace = _drive(problem, 0, self.CFG)
        assert (trace.status, trace.iterations, trace.gaps) == (Status.CONVERGED, 1, [1.0, 1e-9])
        assert problem.measured == [1]  # only a gap below tol is confirmed
        assert np.array_equal(trace.final_point, [1.0])

    def test_an_unconfirmed_gap_records_the_distance_and_goes_on(self):
        problem = ScriptedProblem([1.0, 1e-9, 0.0], {1: 0.5, 2: 1e-7})
        trace = _drive(problem, 0, self.CFG)
        assert (trace.status, trace.iterations, trace.gaps) == (
            Status.CONVERGED, 2, [1.0, 0.5, 0.0])
        assert problem.measured == [1, 2]

    def test_a_nan_distance_never_converges(self):
        problem = ScriptedProblem([1e-9] * 6, dict.fromkeys(range(6), math.nan))
        trace = _drive(problem, 0, self.CFG)
        assert (trace.status, trace.iterations) == (Status.NONFINITE, self.CFG.max_iter)
        assert all(math.isnan(g) for g in trace.gaps) and len(trace.gaps) == 6

    def test_a_missing_dist_is_never_called(self):
        # calling dist = None would raise TypeError
        problem = ScriptedProblem([1.0, 1e-9], None)
        trace = _drive(problem, 0, self.CFG)
        assert (trace.status, trace.iterations, trace.gaps) == (Status.CONVERGED, 1, [1.0, 1e-9])


class TestConePlane:
    """CRM and MAP on a second-order cone and an ``AffineSubspace`` run on two
    coordinates in the plane of ``U`` that their iterates never leave, and DRM
    on four coordinates in ``span{x_p, z_0 - x_p, L e_0, e_0}``."""

    @staticmethod
    def assert_same_run(K, U, z0, method, ref=None):
        """``run`` matches the R^n iteration ``ref``, its trace and iterates (run
        here if not given)."""
        cfg = SolverConfig(method=method, max_iter=2000)
        plane, plane_iterates = recorded(run, K, U, z0, cfg)
        ref, ref_iterates = ref or drive_recorded(_TwoSets(K, U, method), U.project(z0), cfg)
        assert (plane.status, plane.iterations) == (ref.status, ref.iterations)
        assert len(plane_iterates) == len(ref_iterates)
        for a, b in zip([plane.final_point, *plane_iterates], [ref.final_point, *ref_iterates]):
            assert la.norm(a - b) <= 1e-12 * (1.0 + la.norm(b))

    # U projects through its row space up to rank 100 and its null space above
    @pytest.mark.parametrize("i, null", [(0, False), (1, False), (3, False),
                                         (4, True), (5, True), (6, True)])
    @pytest.mark.parametrize("method", [Method.CRM, Method.MAP, Method.DRM])
    def test_cone_grid_runs_match_the_generic_path(self, i, null, method):
        K, U, z0 = cone_grid_case(i)
        assert U._null is null
        self.assert_same_run(K, U, z0, method)

    def test_anchored_draws_match_the_generic_path(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            anchor = anchored_point(rng, int(rng.integers(2, 9)), "soc")
            U = anchored_affine(rng, anchor)
            z0 = point_in_affine(rng, U, anchor, spread=3.0)
            for method in Method:
                self.assert_same_run(SecondOrderCone(anchor.size), U, z0, method)

    def test_only_the_start_is_projected_onto_u(self, monkeypatch):
        calls = dict.fromkeys((AffineSubspace, SecondOrderCone), 0)

        def counting(cls):
            project = cls._project

            def counting_project(self, x):
                calls[cls] += 1
                return project(self, x)
            return counting_project

        for cls in calls:
            monkeypatch.setattr(cls, "_project", counting(cls))
        for i in (0, 4):  # a row-space and a null-space basis
            K, U, z0 = cone_grid_case(i)
            for method, confirm in ((Method.CRM, 0), (Method.MAP, 0), (Method.DRM, 1)):
                calls.update(dict.fromkeys(calls, 0))
                trace = run(K, U, z0, SolverConfig(method=method))
                assert trace.status is Status.CONVERGED and trace.iterations > 1
                # no projection per iteration; DRM confirms its last gap in R^n
                # with one projection onto K
                assert calls == {AffineSubspace: 1, SecondOrderCone: confirm}

    def test_the_subspace_set_up_runs_once_per_subspace(self, monkeypatch):
        inst = gen_soc_instance(200, derive_seed(2024, 1, 4))
        K, U = inst.sets[0], inst.affine
        starts = [gen_start(inst, derive_seed(2024, 2, 4, j), min_gap=1e-6).projected
                  for j in range(3)]
        calls = []
        linear = AffineSubspace._linear

        def counting_linear(self, v):
            calls.append(self)
            return linear(self, v)

        # on the class itself: run takes the cone path only for exactly AffineSubspace
        monkeypatch.setattr(AffineSubspace, "_linear", counting_linear)
        for z0 in starts:
            for method in (Method.CRM, Method.MAP, Method.DRM):
                assert run(K, U, z0, SolverConfig(method=method)).status is Status.CONVERGED
        assert calls == [U]

    @pytest.mark.parametrize("i", range(5))
    def test_runs_on_a_shared_subspace_equal_runs_on_a_fresh_one(self, i):
        K, U, z0 = cone_grid_case(i)
        for method in (Method.MAP, Method.DRM, Method.CRM, Method.MAP, Method.CRM, Method.DRM):
            cfg = SolverConfig(method=method)
            shared, fresh = run(K, U, z0, cfg), run(K, AffineSubspace(U.A, U.b), z0, cfg)
            assert (shared.status, shared.iterations) == (fresh.status, fresh.iterations)
            assert shared.gaps == fresh.gaps
            assert np.array_equal(shared.final_point, fresh.final_point)

    # both intersections are empty; at this scale P_U cancels in R^n, where
    # the first DRM run ended converged at [0, 0, 0] after 2 iterations, and
    # the coordinate gap of the second rounds to 0 at iteration 24,173
    @pytest.mark.parametrize("A, b, scale, max_iter", [
        ([[1.0, 0.0, 0.0]], [-1.0], 1e100, 2000),
        ([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [-1.0, 0.0], 1e150, 30_000),
    ], ids=["apex", "parallel-ray"])
    def test_drm_never_converges_on_an_empty_problem_far_out(self, A, b, scale, max_iter):
        K, U = SecondOrderCone(3), AffineSubspace(A, b)
        cfg = SolverConfig(method=Method.DRM, max_iter=max_iter)
        trace = run(K, U, scale * np.array([0.3, 2.0, 1.0]), cfg)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, max_iter)
        assert min(trace.gaps) >= cfg.tol
        y = trace.final_point  # the shadow stays in U
        assert la.norm(U.project(y) - y) <= 1e-12 * (1.0 + la.norm(y))

    # a one-factor product is not exactly a cone, so the same empty problem
    # runs in R^n; P_U(z) loses x_p to rounding there, and the shadow
    # [0, 0, 0], in K but 1 off U, ended the run converged after 2 iterations
    def test_drm_never_converges_far_out_on_a_shadow_rounded_off_u(self):
        K, U = ProductSet([SecondOrderCone(3)]), AffineSubspace([[1.0, 0.0, 0.0]], [-1.0])
        cfg = SolverConfig(method=Method.DRM, max_iter=2000)
        trace = run(K, U, 1e100 * np.array([0.3, 2.0, 1.0]), cfg)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, cfg.max_iter)
        assert min(trace.gaps) >= 1.0  # the shadow's distance to U

    @staticmethod
    def drm_run(K, U, z0, max_iter):
        """A cone-plane DRM run, its last shadow, the shadows ``dist`` rejected,
        and the lift of that last shadow by a problem that lifted nothing
        before."""
        cfg = SolverConfig(method=Method.DRM, max_iter=max_iter)
        shadows, rejected = [], []
        with np.errstate(over="ignore", invalid="ignore"):  # as run calls them
            problem, z = _problem(K, U, np.asarray(z0, dtype=float), cfg)
            assert type(problem) is _ConeAffine

            def measure(z):
                y, g, data = problem.measure(z)
                shadows.append(y)
                return y, g, data

            def dist(y):
                d = problem.dist(y)
                if d >= cfg.tol:
                    rejected.append(y)
                return d

            trace = _drive(SimpleNamespace(start=problem.start, measure=measure,
                                           step=problem.step, lift=problem.lift, dist=dist),
                           z, cfg)
            fresh = _ConeAffine(K, U, U.project(z0), Method.DRM).lift(shadows[-1])
        return trace, shadows[-1], rejected, fresh

    def test_a_converged_drm_run_ends_at_the_lift_of_its_shadow(self):
        K, U, z0 = cone_grid_case(0)
        trace, y, rejected, fresh = self.drm_run(K, U, z0, 100_000)
        assert trace.status is Status.CONVERGED and trace.iterations > 1
        assert trace.final_point.tobytes() == fresh.tobytes()
        assert trace.final_point.tobytes() == run(K, U, z0, SolverConfig(method=Method.DRM)) \
            .final_point.tobytes()

    # empty, far out: the coordinate gap rounds below tol from iteration 24,173
    # on, and dist rejects each such shadow; the first run ends on one of them,
    # the second on a shadow after the last of them
    @pytest.mark.parametrize("max_iter, last_rejected", [(24_173, True), (30_000, False)])
    def test_a_drm_run_at_max_iter_ends_at_the_lift_of_its_shadow(self, max_iter, last_rejected):
        K, U = SecondOrderCone(3), AffineSubspace([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [-1.0, 0.0])
        trace, y, rejected, fresh = self.drm_run(K, U, 1e150 * np.array([0.3, 2.0, 1.0]),
                                                 max_iter)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, max_iter)
        assert rejected and (rejected[-1] is y) == last_rejected
        assert trace.final_point.tobytes() == fresh.tobytes()

    def test_a_rejected_shadow_is_not_lifted_for_another(self):
        K, U, z0 = cone_grid_case(0)
        z = U.project(z0)
        problem, fresh = _ConeAffine(K, U, z, Method.DRM), _ConeAffine(K, U, z, Method.DRM)
        start, other = (1.0, 0.0), (0.5, 0.25)  # the start's shadow is off K
        assert problem.dist(start) >= 1e-6
        assert problem.lift(other).tobytes() == fresh.lift(other).tobytes()
        assert problem.lift(start).tobytes() == fresh.lift(start).tobytes()

    def test_a_subclass_of_affine_subspace_keeps_the_generic_path(self):
        K, U, z0 = cone_grid_case(0)
        counting = CountingAffine(U.A, U.b)
        trace = run(K, counting, z0, SolverConfig(method=Method.MAP))
        assert trace.status is Status.CONVERGED and trace.iterations > 1
        assert counting.projects == trace.iterations + 1  # one per step, one for the start


def rule_outcome(rule, *args):
    """The bits of ``t``, NaN included, or the class of the exception raised."""
    try:
        return struct.pack("<d", rule(*args))
    except Exception as exc:  # the class is what is compared
        return type(exc)


class TestCrmRule:
    """``_crm_coefficient`` evaluates its residual scale only for a residual
    above ``RESIDUAL_TOL``; it decides every input as the full rule does."""

    @staticmethod
    def assert_same(uu, du, dd, z_norm):
        args = (uu, du, dd, z_norm)
        assert rule_outcome(_crm_coefficient, *args) == rule_outcome(full_crm_coefficient, *args), \
            args

    # uu = du = 1 give t = 1/2 and a residual of |2 - 2 dd|, against a scale of
    # 2: each r is the residual, in units of RESIDUAL_TOL, of dd = 1 - r/2
    @pytest.mark.parametrize("r", [0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 1.5, 2 - 1e-6, 2 + 1e-6, 3.0])
    def test_residuals_around_the_tolerance(self, r):
        dd = 1.0 - 0.5 * r * RESIDUAL_TOL
        self.assert_same(1.0, 1.0, dd, 1.0)
        outcome = rule_outcome(_crm_coefficient, 1.0, 1.0, dd, 1.0)
        assert (outcome is DegenerateConfiguration) == (r > 2.0)

    @pytest.mark.parametrize("args", [
        # du <= 0
        (1.0, 0.0, 1.0, 1.0), (1.0, -0.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0),
        (1.0, -1e-300, 0.0, 1.0),
        # fixed points: ||u|| within FIXED_POINT_TOL (1 + ||z||), and just beyond
        (0.0, 0.0, 0.0, 0.0), (1e-30, 1e-30, 1e-30, 1.0),
        ((0.99 * FIXED_POINT_TOL) ** 2, 1e-29, 1e-29, 0.0),
        ((1.01 * FIXED_POINT_TOL) ** 2, 1e-29, 1e-29, 0.0),
        (1.0, 1.0, 1.0, 1e20), (-1.0, 1.0, 1.0, 1.0),
        # NaN and inf in each place
        (math.nan, 1.0, 1.0, 1.0), (1.0, math.nan, 1.0, 1.0), (1.0, 1.0, math.nan, 1.0),
        (1.0, 1.0, 1.0, math.nan), (math.inf, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, 1.0),
        (1.0, 1.0, math.inf, 1.0), (1.0, 1.0, 1.0, math.inf), (math.inf, math.inf, math.inf, 1.0),
        (1.0, 1.0, -math.inf, 1.0), (math.inf, 1.0, math.inf, math.inf),
        # squared norms near overflow
        (1e307, 1e307, 1e307, 1.0), (1.7e308, 1.7e308, 1.7e308, 1.0),
        (1e307, 5e306, 1e307, 1e153), (1e307, 1e307, 4e307, 0.0), (1.7e308, 1e307, 1e300, 1.0),
        (4e-308, 2e-308, 2e-308, 0.0),
    ])
    def test_hand_picked_inputs(self, args):
        self.assert_same(*args)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(), st.floats(), st.floats(), st.floats())
    def test_any_floats(self, uu, du, dd, z_norm):
        self.assert_same(uu, du, dd, z_norm)

    # the inputs of a CRM step: u and d = L u for an orthogonal projector L,
    # at scales up to overflow, with <d, u> moved by a relative amount
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           scale=st.integers(-160, 153),
           shift=st.sampled_from([0.0, 1e-16, -1e-12, 1e-9, 5e-9, -5e-9, 2e-8, 1e-6]))
    def test_inputs_of_a_step(self, seed, dim, scale, shift):
        rng = np.random.default_rng(seed)
        u = 10.0 ** scale * rng.standard_normal(dim)
        q, _ = la.qr(rng.standard_normal((dim, int(rng.integers(1, dim + 1)))))
        d = q @ (q.T @ u)
        z_norm = 10.0 ** scale * abs(rng.standard_normal())
        with np.errstate(over="ignore", invalid="ignore"):
            uu, du, dd = float(u @ u), float(d @ u), float(d @ d)
        self.assert_same(uu, du * (1.0 + shift), dd, z_norm)
