"""Product-space lifting, projections, the CRM-prod step, and the prod driver."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import linalg as la

from crmfeas.errors import DimensionMismatch, NotDiagonal, NotInAffine
from crmfeas.instances import derive_seed, gen_polyhedral_instance, gen_start
from crmfeas.methods import Method, SolverConfig, Status, _drive, _problem, _TwoSets, run
from crmfeas.product_space import (
    DIAG_TOL,
    ROW_HEADROOM,
    DiagonalSubspace,
    ProductSet,
    _Diagonal,
    _Halfspaces,
    _RowSpace,
    _prod_problem,
    crm_prod_step,
    lift,
    restrict,
    run_prod,
)
from crmfeas.sets import (AffineSubspace, Ball, Box, Halfspace, Hyperplane, SecondOrderCone,
                          _HalfspaceRows)
from conftest import (ANCHORED_KINDS, anchored_affine, anchored_point, anchored_set,
                      drive_recorded, recorded)

TWO_BALLS = ProductSet([Ball([-1.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])
OVERLAP = ProductSet([Ball([-1.0, 0.0], 1.25), Ball([1.0, 0.0], 1.25)])


class TestLiftRestrict:
    def test_lift_concatenates(self):
        assert np.array_equal(lift([1.0, 2.0], 3), [1, 2, 1, 2, 1, 2])

    def test_lift_zero(self):
        assert np.array_equal(lift([0.0, 0.0], 2), np.zeros(4))

    def test_round_trip(self, rng):
        x = rng.standard_normal(5)
        assert np.array_equal(restrict(lift(x, 4), 4), x)

    def test_restrict_examples(self):
        assert np.array_equal(restrict([1.0, 2.0, 1.0, 2.0], 2), [1.0, 2.0])
        # the blockwise mean, of blocks within 1e-8 (1 + ||z||) of it
        assert np.array_equal(restrict([0.0, 0.0, 1e-8, 0.0], 2), [5e-9, 0.0])

    def test_restrict_rejects_disagreeing_blocks(self):
        with pytest.raises(NotDiagonal):
            restrict([0.0, 0.0, 1.0, 1.0], 2)
        with pytest.raises(NotDiagonal):  # 1.5e-8 from the mean
            restrict([0.0, 0.0, 3e-8, 0.0], 2)

    def test_restrict_bad_block_count(self):
        with pytest.raises(DimensionMismatch):
            restrict([1.0, 2.0, 3.0], 2)

    def test_lift_requires_positive_m(self):
        with pytest.raises(ValueError):
            lift([1.0], 0)

    # 2.5 would truncate or fail to reshape, 2.0 and True would pass as 2 and 1
    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.True_, 0, -1, float("nan"), "2"])
    def test_counts_must_be_integers_of_at_least_1(self, count):
        with pytest.raises(ValueError, match="integer"):
            DiagonalSubspace(count, 2)
        with pytest.raises(ValueError, match="integer"):
            DiagonalSubspace(2, count)
        with pytest.raises(ValueError, match="integer"):
            lift([1.0, 2.0], count)
        with pytest.raises(ValueError, match="integer"):
            restrict([1.0, 2.0, 1.0, 2.0], count)

    def test_counts_may_be_numpy_integers(self):
        D = DiagonalSubspace(np.int64(2), np.uint8(3))
        assert (D.n, D.m, D.dim) == (2, 3, 6) and type(D.n) is type(D.m) is int
        z = lift([1.0, 2.0], np.int32(3))
        assert np.array_equal(z, [1.0, 2.0] * 3)
        assert np.array_equal(restrict(z, np.int64(3)), [1.0, 2.0])


def _anchored_factors(rng, anchor, kinds):
    """One factor through ``anchor`` of each kind in ``kinds``, in that order."""
    return [anchored_affine(rng, anchor) if kind == "affine" else anchored_set(rng, kind, anchor)
            for kind in kinds]


class TestProjections:
    def test_project_d_blockwise_mean(self):
        z = np.array([1.0, 3.0, 3.0, 5.0])
        assert np.array_equal(DiagonalSubspace(2, 2).project(z), [2.0, 4.0, 2.0, 4.0])

    def test_project_d_fixes_diagonal(self, rng):
        z = lift(rng.standard_normal(3), 4)
        assert np.allclose(DiagonalSubspace(3, 4).project(z), z, atol=1e-15)

    def test_project_d_linearity(self, rng):
        D = DiagonalSubspace(4, 3)
        z = rng.standard_normal(12)
        assert np.allclose(D.project(z) + D.project(-z), np.zeros(12), atol=1e-15)

    def test_project_d_orthogonality(self, rng):
        # (z - P_D z) ⊥ D, checked on random diagonal directions
        D = DiagonalSubspace(4, 3)
        for _ in range(30):
            z = 3.0 * rng.standard_normal(12)
            residual = z - D.project(z)
            d = lift(rng.standard_normal(4), 3)
            assert abs(float(residual @ d)) <= 1e-10 * (1 + la.norm(z) * la.norm(d))

    def test_project_w_feasible_blocks_fixed(self, rng):
        z = np.concatenate([[-2.0, 0.0], [0.5, 0.0]])  # both blocks inside their ball
        assert np.allclose(OVERLAP.project(z), z, atol=1e-15)

    def test_project_w_single_factor(self, rng):
        cone = SecondOrderCone(3)
        W = ProductSet([cone])
        z = rng.standard_normal(3)
        assert np.array_equal(W.project(z), cone.project(z))

    def test_project_w_blocks_independent(self):
        W = ProductSet([Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)])
        z = np.array([-1.0, 5.0, 3.0, 2.0])  # block 1 feasible, block 2 not
        out = W.project(z)
        assert np.array_equal(out[:2], z[:2])
        assert np.allclose(out[2:], [3.0, 0.0])

    def test_halfspace_fast_path_matches_generic(self, rng):
        halfspaces = [Halfspace(rng.standard_normal(4) + 0.1, float(rng.standard_normal()))
                      for _ in range(6)]
        W = ProductSet(halfspaces)  # one group: the rows of A x <= b
        for _ in range(25):
            z = 3.0 * rng.standard_normal(24)
            fast = W.project(z)
            slow = np.concatenate(
                [h.project(z[4 * i:4 * (i + 1)]) for i, h in enumerate(halfspaces)]
            )
            assert la.norm(fast - slow) <= 1e-12 * (1 + la.norm(z))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           extra=st.lists(st.sampled_from(ANCHORED_KINDS + ("hyperplane", "affine")),
                          max_size=6))
    def test_grouped_projections_match_each_factor(self, seed, dim, extra):
        # two or more factors of every catalog kind, so cones repeat, and
        # hyperplanes and affine subspaces, which are projected one at a time
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "soc")
        kinds = list(ANCHORED_KINDS) * 2 + ["hyperplane", "affine"] + extra
        rng.shuffle(kinds)
        factors = _anchored_factors(rng, anchor, kinds)
        ball = next(f for f in factors if isinstance(f, Ball))
        box = next(f for f in factors if isinstance(f, Box))
        on_face = anchor.copy()
        on_face[0] = box.lower[0]
        apex, polar_axis = np.zeros(dim), -np.eye(dim)[0]  # both with ||u|| = 0
        points = [anchor + 3.0 * rng.standard_normal(dim) for _ in range(4)]
        points += [anchor, ball.center, on_face, apex, polar_axis, np.eye(dim)[0]]

        products = [(ProductSet(factors), factors)]
        for kind in sorted(set(kinds)):  # one group each
            group = [f for f, k in zip(factors, kinds) if k == kind]
            products.append((ProductSet(group), group))
        for W, sets in products:
            work = W._workspace()
            for x in points:
                ps = [f._project(x) for f in sets]
                tol = 1e-12 * (1.0 + la.norm(x))
                total, sq = W._projection_sums(x, work)
                assert la.norm(total - sum(ps)) <= tol
                assert abs(sq - sum(float((p - x) @ (p - x)) for p in ps)) <= tol
                z = lift(x, W.m)
                assert la.norm(W.project(z) - np.concatenate(ps)) <= 1e-12 * (1.0 + la.norm(z))
            blocks = anchor + 3.0 * rng.standard_normal((W.m, dim))
            expected = np.concatenate([f._project(x) for f, x in zip(sets, blocks)])
            z = blocks.ravel()
            assert la.norm(W.project(z) - expected) <= 1e-12 * (1.0 + la.norm(z))

    def test_mixed_dimension_factors_rejected(self):
        with pytest.raises(DimensionMismatch):
            ProductSet([Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)])

    def test_diagonal_to_affine_matches_projector(self, rng):
        # D in equation form: x^(i) - x^(i+1) = 0 for consecutive blocks
        n, m = 3, 3
        D = DiagonalSubspace(n, m)
        A = np.zeros(((m - 1) * n, n * m))
        for i in range(m - 1):
            A[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.eye(n)
            A[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = -np.eye(n)
        U = AffineSubspace(A, np.zeros((m - 1) * n))
        for _ in range(10):
            z = rng.standard_normal(9)
            assert np.allclose(D.project(z), U.project(z), atol=1e-10)


class TestProdSteps:
    def test_crm_prod_fixed_point(self):
        z = lift([-0.2, 0.1], 2)  # in both balls and diagonal
        assert np.array_equal(crm_prod_step(OVERLAP, z), z)

    def test_crm_prod_m1_collapses_to_projection(self, rng):
        W = ProductSet([Ball([0.0, 0.0], 1.0)])
        z = np.array([3.0, 4.0])
        out = crm_prod_step(W, z)
        assert np.allclose(out, W.factors[0].project(z), atol=1e-12)

    def test_crm_prod_requires_diagonal_point(self):
        with pytest.raises(NotInAffine):
            crm_prod_step(TWO_BALLS, [0.0, 2.0, 1.0, 2.0])

    def test_equivalence_of_formulations(self, rng):
        # x in every factor  <=>  lift(x, m) in W (and in D exactly)
        factors = [Ball([0.0, 0.0], 2.0), Halfspace([1.0, 0.0], 1.0), Box([-3.0, -3.0], [3.0, 3.0])]
        W = ProductSet(factors)
        D = DiagonalSubspace(2, 3)
        for _ in range(50):
            x = 2.5 * rng.standard_normal(2)
            zx = lift(x, 3)
            residuals = [la.norm(x - f.project(x)) for f in factors]
            if max(residuals) <= 1e-12:
                assert W.contains(zx, 1e-10)
            elif max(residuals) >= 1e-8:
                assert not W.contains(zx, 1e-10)
            assert la.norm(zx - D.project(zx)) <= 1e-14 * (1.0 + la.norm(zx))

    def test_map_prod_ordering_pinned(self):
        # run_prod's MAP step is P_D(P_W(y)) on shadows y in D, which differs
        # from the raw P_W(P_D(z)) here
        z = np.array([0.0, 2.0, 0.5, 2.0])
        W, D = TWO_BALLS, DiagonalSubspace(2, 2)
        cfg = SolverConfig(method=Method.MAP, max_iter=1, tol=1e-12)
        _, iterates = recorded(run_prod, W, z, cfg)
        y0 = D.project(z)
        assert np.array_equal(iterates[0], y0)
        assert np.array_equal(iterates[1], D.project(W.project(y0)))
        assert not np.allclose(iterates[1], W.project(y0))

    def test_drm_prod_ordering_pinned(self):
        # DRM-prod reflects through D first: (z + R_W(R_D z)) / 2
        z = np.array([0.0, 2.0, 0.5, 2.0])
        W, D = TWO_BALLS, DiagonalSubspace(2, 2)
        cfg = SolverConfig(method=Method.DRM, max_iter=2, tol=1e-12)
        _, iterates = recorded(run_prod, W, z, cfg)
        z1 = iterates[1]
        expected = 0.5 * (z1 + W.reflect(D.reflect(z1)))
        assert np.allclose(iterates[2], expected, atol=1e-15)
        swapped = 0.5 * (z1 + D.reflect(W.reflect(z1)))
        assert not np.allclose(expected, swapped)

    def test_map_prod_result_in_w(self, rng):
        # the raw MAP-prod point P_W(P_D z), whose shadow run_prod iterates
        D = DiagonalSubspace(2, 2)
        for _ in range(10):
            z = 3.0 * rng.standard_normal(4)
            assert TWO_BALLS.contains(TWO_BALLS.project(D.project(z)), 1e-10)

    def test_prod_fixed_points(self):
        z = lift([0.05, 0.1], 2)  # in both overlapping balls, diagonal
        for method in (Method.CRM, Method.MAP, Method.DRM):
            trace = run_prod(OVERLAP, z, SolverConfig(method=method, tol=1e-12))
            assert trace.status is Status.CONVERGED
            assert trace.iterations == 0
            assert np.allclose(trace.final_point, z, atol=1e-14)


class TestRunProd:
    def test_two_tangent_balls_crm(self):
        cfg = SolverConfig(method=Method.CRM, tol=1e-6)
        trace, iterates = recorded(run_prod, TWO_BALLS, lift([0.0, 2.0], 2), cfg)
        assert trace.status is Status.CONVERGED
        # D-invariance along the whole trajectory
        D = DiagonalSubspace(2, 2)
        for z in iterates:
            assert la.norm(z - D.project(z)) <= 1e-8 * (1 + la.norm(z))
        x = restrict(trace.final_point, 2)
        for ball in TWO_BALLS.factors:
            assert ball.contains(x, tol=1e-6)
        # independent oracle: a long MAP-prod run heads to the same region
        map_trace = run_prod(TWO_BALLS, lift([0.0, 2.0], 2),
                             SolverConfig(method=Method.MAP, tol=1e-4, max_iter=200_000))
        assert map_trace.status is Status.CONVERGED
        x_map = restrict(map_trace.final_point, 2)
        assert la.norm(x - [0.0, 0.0]) < 5e-3  # tangency point
        assert la.norm(x_map - x) < 5e-2

    def test_all_methods_converge_on_overlapping_balls(self):
        z0 = lift([0.0, 2.0], 2)
        for method in (Method.CRM, Method.MAP, Method.DRM):
            trace = run_prod(OVERLAP, z0, SolverConfig(method=method, tol=1e-6))
            assert trace.status is Status.CONVERGED
            x = restrict(trace.final_point, 2)
            for ball in OVERLAP.factors:
                assert ball.contains(x, tol=2e-6)

    def test_m1_collapse_all_methods_equal(self):
        W = ProductSet([Ball([0.0, 0.0], 1.0)])
        z0 = np.array([4.0, 3.0])
        counts = {}
        for method in (Method.CRM, Method.MAP, Method.DRM):
            trace = run_prod(W, z0, SolverConfig(method=method, tol=1e-9))
            assert trace.status is Status.CONVERGED
            counts[method] = trace.iterations
            assert la.norm(trace.final_point - W.factors[0].project(z0)) <= 1e-8
        assert len(set(counts.values())) == 1
        assert max(counts.values()) <= 2

    def test_gap_trace_shape_and_final(self):
        cfg = SolverConfig(method=Method.MAP, tol=1e-6)
        trace, iterates = recorded(run_prod, OVERLAP, lift([0.0, 3.0], 2), cfg)
        assert len(trace.gaps) == trace.iterations + 1
        assert len(iterates) == trace.iterations + 1
        assert trace.gaps[-1] < 1e-6

    def test_generic_two_set_driver_also_works_on_w_and_d(self):
        # one driver, two wirings: K := W, U := D with the two-set gap rule
        D = DiagonalSubspace(2, 2)
        trace = run(OVERLAP, D, lift([0.0, 2.0], 2), SolverConfig(method=Method.CRM, tol=1e-6))
        assert trace.status is Status.CONVERGED
        x = restrict(trace.final_point, 2)
        for ball in OVERLAP.factors:
            assert ball.contains(x, tol=1e-5)

    def test_crm_prod_iterates_stay_on_the_diagonal(self):
        # without re-projecting onto D, rounding carried these iterates up to
        # 3e-4 (relative) off D over 213 iterations
        inst = gen_polyhedral_instance(200, derive_seed(137, 1, 2))
        start = gen_start(inst, derive_seed(137, 2, 2, 0), min_gap=1e-6)
        W = ProductSet(inst.sets)
        D = DiagonalSubspace(W.block_dim, W.m)
        trace, iterates = recorded(run_prod, W, start.projected,
                                   SolverConfig(method=Method.CRM, tol=1e-6))
        assert trace.status is Status.CONVERGED
        for z in iterates:
            assert la.norm(z - D.project(z)) <= DIAG_TOL * (1.0 + la.norm(z))
        restrict(trace.final_point, W.m)  # raises NotDiagonal past DIAG_TOL

    def test_serial_method_rejected(self):
        with pytest.raises(ValueError):
            run_prod(OVERLAP, np.zeros(4), SolverConfig(method="SerialCRM"))


def _assert_matches_reference(W, z0, cfg, fast=None):
    """run_prod (CRM and MAP in R^n), or its trace ``fast``, against the R^(nm)
    driver run(W, D)."""
    fast = run_prod(W, z0, cfg) if fast is None else fast
    ref = run(W, DiagonalSubspace(W.block_dim, W.m), z0, cfg)
    assert (fast.iterations, fast.status) == (ref.iterations, ref.status)
    scale = 1.0 + la.norm(ref.final_point)
    assert la.norm(fast.final_point - ref.final_point) <= 1e-10 * scale
    return fast


def _assert_crm_matches_reference_step_by_step(W, z0, cfg):
    """``_assert_matches_reference`` for CRM, and every step of run_prod
    against ``crm_prod_step``."""
    trace, iterates = recorded(run_prod, W, z0, cfg)
    _assert_matches_reference(W, z0, cfg, trace)
    for z, z_next in zip(iterates, iterates[1:]):
        assert la.norm(z_next - crm_prod_step(W, z)) <= 1e-12 * (1.0 + la.norm(z))
    return trace


def _poly_case(index, start):
    inst = gen_polyhedral_instance(200, derive_seed(137, 1, index))
    z0 = gen_start(inst, derive_seed(137, 2, index, start), min_gap=1e-6).projected
    return ProductSet(inst.sets), z0


def _wide_halfspaces(m, n):
    """``m`` halfspaces in R^n that hold a common point, and a start near it."""
    rng = np.random.default_rng(0)
    A, x = rng.standard_normal((m, n)), rng.standard_normal(n)
    return (ProductSet([Halfspace(a, float(a @ x) + 0.1) for a in A]),
            lift(x + 0.01 * rng.standard_normal(n), m))


def _assert_drm_matches_reference(W, z0, cfg):
    """DRM-prod, on a product of halfspaces kept as ``(w, s, u)`` and on any
    other product in group order, against the R^(nm) iteration in factor
    order, iterate by iterate: the reference iterates are permuted into group
    order, that of the fast iterates."""
    fast, fast_iterates = recorded(run_prod, W, z0, cfg)
    D = DiagonalSubspace(W.block_dim, W.m)
    ref, ref_iterates = drive_recorded(_TwoSets(W, D, Method.DRM), D._project(z0), cfg)
    assert (fast.iterations, fast.status) == (ref.iterations, ref.status)
    scale = 1.0 + la.norm(ref.final_point)
    assert la.norm(fast.final_point - ref.final_point) <= 1e-10 * scale
    assert len(fast_iterates) == len(ref_iterates)
    for a, b in zip(fast_iterates, ref_iterates):
        if W._order is not None:
            b = b.reshape(W.m, W.block_dim)[W._order].ravel()
        assert la.norm(a - b) <= 1e-12 * (1.0 + la.norm(b))
    return fast


class TestIterationInRn:
    """CRM and MAP of run_prod iterate x in R^n (MAP on a product of
    halfspaces with independent normals: w in R^m), DRM on a product of
    halfspaces iterates (w, s, u) in R^m x R^m x R^m, and DRM on any other
    product, or from far out, iterates R^(nm) with its blocks in group
    order; they must retrace the R^(nm) iteration."""

    def test_poly_grid_starts_match_the_product_space_driver(self):
        # the reference polyhedral grid: instance 0 of base seed 137 (m = 57)
        crm = SolverConfig(method=Method.CRM, tol=1e-6)
        for j in range(20):
            W, z0 = _poly_case(0, j)
            trace = _assert_crm_matches_reference_step_by_step(W, z0, crm)
            assert trace.status is Status.CONVERGED
        # MAP takes about a thousand R^(nm) iterations per start; three suffice
        for j in range(3):
            W, z0 = _poly_case(0, j)
            trace = _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, tol=1e-6))
            assert trace.status is Status.CONVERGED

    @pytest.mark.parametrize("index", [2, 7])
    def test_m171_instances_match_the_product_space_driver(self, index):
        W, z0 = _poly_case(index, 0)
        assert W.m == 171
        trace = _assert_crm_matches_reference_step_by_step(
            W, z0, SolverConfig(method=Method.CRM, tol=1e-6))
        assert trace.status is Status.CONVERGED
        # the first 300 MAP iterations, of 4,656 (instance 2) and 6,518 (instance 7)
        trace = _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, max_iter=300))
        assert trace.status is Status.MAX_ITER

    @pytest.mark.parametrize("index, iterations", [(2, 4656), (7, 6518)])
    def test_m171_map_runs_on_w_as_on_x(self, index, iterations):
        # the whole MAP-prod run from the first start of the benchmark's two
        # m = 171 instances, on w (_RowSpace) and forced onto x (_Halfspaces)
        W, z0 = _poly_case(index, 0)
        cfg = SolverConfig(method=Method.MAP, tol=1e-6)
        assert type(_prod_problem(W, z0, cfg)[0]) is _RowSpace
        trace = run_prod(W, z0, cfg)
        assert (trace.iterations, trace.status) == (iterations, Status.CONVERGED)
        x0 = z0.reshape(W.m, W.block_dim).mean(axis=0)
        ref = _drive(_Halfspaces(W, Method.MAP), x0, cfg)
        assert (ref.iterations, ref.status) == (iterations, Status.CONVERGED)
        scale = 1.0 + la.norm(ref.final_point)
        assert la.norm(trace.final_point - ref.final_point) <= 1e-10 * scale

    def test_poly_drm_runs_on_w_as_on_x(self):
        # every DRM-prod run of the benchmark's poly workload, instance 0 at its
        # 20 starts and the two m = 171 instances at their first, run on w
        # (_RowSpace) and converge in a perfbench poly round's DRM total
        cfg = SolverConfig(method=Method.DRM, tol=1e-6)
        total = 0
        for index, start in [(0, j) for j in range(20)] + [(2, 0), (7, 0)]:
            W, z0 = _poly_case(index, start)
            assert type(_prod_problem(W, z0, cfg)[0]) is _RowSpace
            trace = run_prod(W, z0, cfg)
            assert trace.status is Status.CONVERGED, (index, start)
            total += trace.iterations
        assert total == 984

    def test_poly_grid_drm_matches_the_product_space_driver(self):
        # the same 22 runs, iterate by iterate against the R^(nm) iteration
        cfg = SolverConfig(method=Method.DRM, tol=1e-6)
        for index, start in [(0, j) for j in range(20)] + [(2, 0), (7, 0)]:
            W, z0 = _poly_case(index, start)
            assert W.m == (57 if index == 0 else 171)
            trace = _assert_drm_matches_reference(W, z0, cfg)
            assert trace.status is Status.CONVERGED, (index, start)

    def test_drm_on_w_takes_a_x_minus_b_afresh_and_ends_as_on_x(self):
        # poly instance 0 from a start 3e4 out, where the largest entry of A x_0
        # is about 1e6: u = A x - b is taken afresh as q + G w every 4 steps,
        # and the run retraces the R^(nm) iteration
        W, z0 = _poly_case(0, 0)
        x0 = z0.reshape(W.m, W.block_dim).mean(axis=0)
        x0 = x0 + 3e4 * np.random.default_rng(3).standard_normal(W.block_dim)
        cfg = SolverConfig(method=Method.DRM, tol=1e-6, max_iter=200)
        problem, _ = _prod_problem(W, lift(x0, W.m), cfg)
        assert type(problem) is _RowSpace and problem._every == 4
        trace = _assert_drm_matches_reference(W, lift(x0, W.m), cfg)
        assert (trace.iterations, trace.status) == (43, Status.CONVERGED)

    # a fixed sequence of draws, as for the catalog products below
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), m=st.integers(1, 8),
           shift=st.sampled_from([0.0, -1.0]))
    def test_halfspace_products_drm_matches_the_product_space_driver(self, seed, dim, m,
                                                                     shift):
        # halfspaces through a common point, or, shifted, a product that may be empty
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "halfspace")
        factors = [anchored_set(rng, "halfspace", anchor) for _ in range(m)]
        W = ProductSet([Halfspace(h.a, h.b + shift * la.norm(h.a)) for h in factors])
        z0 = lift(anchor + 3.0 * rng.standard_normal(dim), m)
        _assert_drm_matches_reference(
            W, z0, SolverConfig(method=Method.DRM, max_iter=500))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), m=st.integers(1, 8),
           shift=st.sampled_from([0.0, -1.0]), off=st.sampled_from([3.0, 1e2, 1e4]))
    def test_halfspace_products_crm_and_map_match_the_product_space_driver(
            self, seed, dim, m, shift, off):
        # at most dim random normals are independent, so MAP runs on w; shifted,
        # the product may be empty
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "halfspace")
        factors = [anchored_set(rng, "halfspace", anchor) for _ in range(min(m, dim))]
        W = ProductSet([Halfspace(h.a, h.b + shift * la.norm(h.a)) for h in factors])
        x0 = anchor + off * rng.standard_normal(dim)
        for method in (Method.CRM, Method.MAP):
            cfg = SolverConfig(method=method, max_iter=2000)
            assert _RowSpace(W, x0, cfg.tol, cfg.method).fits
            _assert_matches_reference(W, lift(x0, W.m), cfg)

    def test_row_space_never_converges_on_a_gap_the_rn_measure_rejects(self):
        # {x1 + x2 <= -1} x {x3 <= 0} from x0 = [T + s, -T, 0]: A x0 = [s, 0] is
        # just inside ROW_HEADROOM, but x0 + A^T w rounds w to a multiple of 256,
        # so the point stays a distance 1/sqrt(2) from W while w converges
        W = ProductSet([Halfspace([1.0, 1.0, 0.0], -1.0), Halfspace([0.0, 0.0, 1.0], 0.0)])
        T, s = 2.0**60, 2.0**22
        x0 = np.array([T + s, -T, 0.0])
        cfg = SolverConfig(method=Method.MAP, max_iter=500)
        assert ROW_HEADROOM * (s + 1.0) < cfg.tol < ROW_HEADROOM * 2.0 * s
        assert _RowSpace(W, x0, cfg.tol, cfg.method).fits
        trace = run_prod(W, lift(x0, 2), cfg)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, 500)
        assert min(trace.gaps) >= cfg.tol
        # the closed form measures x; the block array would round its residual to 0
        x = restrict(trace.final_point, 2)
        assert _Halfspaces(W, Method.MAP)._dist(x) == pytest.approx(np.sqrt(0.5))
        ref = _drive(_Halfspaces(W, Method.MAP), x0, cfg)
        assert (ref.status, ref.iterations) == (Status.MAX_ITER, 500)

    # the two paths round differently, so a gap within rounding of tol could
    # split them on some draw; a fixed sequence of draws keeps the test repeatable
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           kinds=st.lists(st.sampled_from(ANCHORED_KINDS), min_size=1, max_size=6))
    def test_catalog_products_match_the_product_space_driver(self, seed, dim, kinds):
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "soc")  # a point of every factor kind
        W = ProductSet([anchored_set(rng, kind, anchor) for kind in kinds])
        z0 = lift(anchor + 3.0 * rng.standard_normal(dim), W.m)
        _assert_crm_matches_reference_step_by_step(
            W, z0, SolverConfig(method=Method.CRM, max_iter=2000))
        _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, max_iter=2000))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
           single=st.sampled_from(["hyperplane", "affine"]),
           shift=st.sampled_from([0.0, -10.0]), off=st.sampled_from([3.0, 1e2, 1e4]))
    def test_mixed_products_match_the_product_space_driver(self, seed, dim, single, shift,
                                                           off):
        # two factors of every vectorized kind and one projected on its own,
        # shuffled, so that the group order permutes the blocks. Shifted 10
        # normal lengths past the common point, the halfspaces miss the boxes,
        # and the product is empty but for rare draws. There the R^n CRM and
        # MAP iterations do not retrace the R^(nm) one, and never did: CRM
        # never converges and its iterates part under rounding, and MAP's
        # stall rule can fire iterations apart, or on one path only. Only an
        # emptiness certificate (ROADMAP item 3) would end both the same way,
        # so those two are checked on unshifted products only.
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "soc")
        kinds = list(ANCHORED_KINDS) * 2 + [single]
        rng.shuffle(kinds)
        factors = _anchored_factors(rng, anchor, kinds)
        W = ProductSet([Halfspace(f.a, f.b + shift * la.norm(f.a)) if type(f) is Halfspace
                        else f for f in factors])
        assert W._order is not None
        z0 = lift(anchor + off * rng.standard_normal(dim), W.m)
        for method in (Method.CRM, Method.MAP) if shift == 0.0 else ():
            _assert_matches_reference(W, z0, SolverConfig(method=method, max_iter=2000))
        _assert_drm_matches_reference(
            W, z0, SolverConfig(method=Method.DRM, max_iter=500))

    # one kind but halfspaces, so each product has one group and reduces in
    # its block array: the vectorized kinds, and hyperplanes and affine
    # subspaces, which are projected one at a time
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), m=st.integers(1, 6),
           kind=st.sampled_from(["ball", "box", "soc", "hyperplane", "affine"]),
           off=st.sampled_from([3.0, 1e2, 1e4]))
    def test_single_kind_products_match_the_product_space_driver(self, seed, dim, m, kind,
                                                                 off):
        rng = np.random.default_rng(seed)
        anchor = anchored_point(rng, dim, "soc")
        W = ProductSet(_anchored_factors(rng, anchor, [kind] * m))
        assert len(W._groups) == 1 and W._halfspaces is None
        z0 = lift(anchor + off * rng.standard_normal(dim), W.m)
        for method in (Method.CRM, Method.MAP):
            _assert_matches_reference(W, z0, SolverConfig(method=method, max_iter=2000))
        _assert_drm_matches_reference(
            W, z0, SolverConfig(method=Method.DRM, max_iter=500))

    @pytest.mark.parametrize("method", [Method.CRM, Method.MAP, Method.DRM])
    def test_memory_stays_at_one_lifted_point(self, method):
        # halfspaces through a common point, n = 200 and m = 10^4: one vector
        # of R^(nm) takes 16 MB, which the lifted final point needs anyway
        rng = np.random.default_rng(6)
        n, m = 200, 10_000
        x = rng.standard_normal(n)
        A = rng.standard_normal((m, n))
        W = ProductSet([Halfspace(a, float(a @ x) + 0.1) for a in A])
        z0 = lift(x + 5.0 * rng.standard_normal(n), m)
        del A
        cfg = SolverConfig(method=method, max_iter=50)
        # the normals are dependent: DRM runs on w without A A^T, MAP on x
        expected = _RowSpace if method is Method.DRM else _Halfspaces
        assert type(_prod_problem(W, z0, cfg)[0]) is expected
        tracemalloc.start()
        try:
            trace = run_prod(W, z0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations > 0 and trace.final_point.shape == (n * m,)
        assert peak < 1.25 * 8 * n * m

    @pytest.mark.parametrize("W, z0", [
        # the dependent rows in R^4 of the MAP certificate test below: empty
        (ProductSet([Halfspace(a, -1.0) for a in
                     ([1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0], [0.0, -1.0, -0.5, 0.0])]),
         lift(np.arange(4) + 0.3, 3)),
        # twelve halfspaces in R^5 that hold a common point, from a start
        # off them
        (_wide_halfspaces(12, 5)[0], lift(np.arange(5) + 0.3, 12)),
    ], ids=["dependent", "m>n"])
    def test_drm_prod_runs_on_w_without_the_gram_matrix(self, W, z0):
        cfg = SolverConfig(method=Method.DRM, max_iter=300)
        problem, _ = _prod_problem(W, z0, cfg)
        assert type(problem) is _RowSpace and problem._G is None and W._gram is None
        _assert_drm_matches_reference(W, z0, cfg)

    def test_halfspace_drm_prod_far_out_is_the_r_nm_run(self):
        # poly instance 0 from a start 1e8 out, beyond ROW_HEADROOM: the run is
        # run(W, D) itself, bitwise
        W, z0 = _poly_case(0, 0)
        x0 = z0.reshape(W.m, W.block_dim).mean(axis=0)
        z0 = lift(x0 + 1e8 * np.random.default_rng(3).standard_normal(W.block_dim), W.m)
        cfg = SolverConfig(method=Method.DRM, tol=1e-6, max_iter=300)
        problem, _ = _prod_problem(W, z0, cfg)
        assert type(problem) is _TwoSets and problem.K is W
        trace = run_prod(W, z0, cfg)
        ref = run(W, DiagonalSubspace(W.block_dim, W.m), z0, cfg)
        assert trace.iterations > 1
        assert (trace.iterations, trace.status) == (ref.iterations, ref.status)
        assert np.array(trace.gaps).tobytes() == np.array(ref.gaps).tobytes()
        assert trace.final_point.tobytes() == ref.final_point.tobytes()

    def test_drm_prod_never_converges_on_an_empty_product_far_out(self):
        # {x1 <= -1} x {-x1 <= -1} is empty; from this start, too far out for
        # the row space, the run is the R^(nm) one, and from iteration 2 on its
        # shadow stays a distance sqrt(2) from W
        W = ProductSet([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
        cfg = SolverConfig(method=Method.DRM, max_iter=20_000)
        trace = run_prod(W, lift([1e12, 3.0], 2), cfg)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, 20_000)
        assert min(trace.gaps) >= cfg.tol
        assert trace.gaps[-1] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        restrict(trace.final_point, 2)  # the shadow lies on D

    def test_drm_prod_on_a_mixed_product_never_converges_far_out(self):
        # {x1 <= -1} x {-x1 <= -1} x a box is empty; from this start the shadow
        # gap in R^(nm) rounds below tol at a shadow about 1 from each halfspace
        W = ProductSet([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0),
                        Box([-1e300, -10.0], [1e300, 10.0])])
        cfg = SolverConfig(method=Method.DRM, max_iter=3000)
        trace = run_prod(W, lift([1e200, 0.5], 3), cfg)
        assert (trace.status, trace.iterations) == (Status.MAX_ITER, 3000)
        assert min(trace.gaps) >= cfg.tol

    # dependent normals: w would drift in the null space of A^T, and MAP's
    # stall rule would never fire; these run on x in R^n and stall there
    @pytest.mark.parametrize("normals, b, pinned", [
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [-1.0, -1.0, 0.0],
         {Method.MAP: (Status.DEGENERATE, 1837), Method.CRM: (Status.MAX_ITER, 20_000)}),
        ([[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0], [0.0, -1.0, -0.5, 0.0]], [-1.0] * 3,
         {Method.MAP: (Status.DEGENERATE, 75), Method.CRM: (Status.MAX_ITER, 20_000)}),
        # independent normals, a nonempty product: the control
        (np.random.default_rng(1).standard_normal((8, 10)), [0.1] * 8,
         {Method.MAP: (Status.CONVERGED, 212), Method.CRM: (Status.CONVERGED, 20)}),
    ])
    def test_map_certifies_empty_products_with_dependent_normals(self, normals, b, pinned):
        W = ProductSet([Halfspace(a, bi) for a, bi in zip(normals, b)])
        z0 = lift(np.arange(W.block_dim) + 0.3, W.m)
        for method, (status, iterations) in pinned.items():
            trace = run_prod(W, z0, SolverConfig(method=method, max_iter=20_000))
            assert (trace.status, trace.iterations) == (status, iterations), method


def _mixed_case(seed, m, kinds=ANCHORED_KINDS):
    """``m`` anchored factors in R^100, the ``kinds`` in turn and then shuffled,
    with a start off every factor."""
    rng = np.random.default_rng(seed)
    anchor = anchored_point(rng, 100, "soc")
    kinds = [kinds[i % len(kinds)] for i in range(m)]
    rng.shuffle(kinds)
    W = ProductSet([anchored_set(rng, kind, anchor) for kind in kinds])
    return W, lift(anchor + 3.0 * rng.standard_normal(100), m)


# (iterations, status) of CRM, MAP and DRM, pinned so that a change to the
# mixed-product path cannot pass on converged statuses alone
MIXED_PINS = {
    (1, 8): {Method.CRM: (22, Status.CONVERGED), Method.MAP: (268, Status.CONVERGED),
             Method.DRM: (28, Status.CONVERGED)},
    (2, 12): {Method.CRM: (35, Status.CONVERGED), Method.MAP: (636, Status.CONVERGED),
              Method.DRM: (34, Status.CONVERGED)},
    (3, 16): {Method.CRM: (12, Status.CONVERGED), Method.MAP: (650, Status.CONVERGED),
              Method.DRM: (34, Status.CONVERGED)},
    (4, 20): {Method.CRM: (25, Status.CONVERGED), Method.MAP: (860, Status.CONVERGED),
              Method.DRM: (42, Status.CONVERGED)},
}


@pytest.mark.parametrize("seed, m", sorted(MIXED_PINS))
def test_mixed_product_iteration_counts_pinned(seed, m):
    W, z0 = _mixed_case(seed, m)
    for method, pinned in MIXED_PINS[seed, m].items():
        trace = run_prod(W, z0, SolverConfig(method=method))
        assert (trace.iterations, trace.status) == pinned, method


def _measured_steps(problem, x, steps):
    """The gaps and iterates of ``steps`` steps of ``problem`` from ``x``."""
    for _ in range(steps):
        y, g, data = problem.measure(x)
        yield g, x.tobytes()
        x = problem.step(x, y, g, data)


class TestRunWorkspace:
    """A ``_Diagonal`` run on any product but one of halfspaces projects into
    its own block array, allocated once per run, whether the product has one
    group or several; its measurements are bitwise those of the sums into a
    workspace of their own."""

    @pytest.mark.parametrize("seed, m, kinds", [
        *(pytest.param(seed, m, ANCHORED_KINDS, id=f"{seed}-{m}")
          for seed, m in sorted(MIXED_PINS)),
        # one group each; hyperplanes are projected one at a time
        *(pytest.param(5, 8, (kind,), id=kind) for kind in ("ball", "box", "soc", "hyperplane")),
    ])
    def test_measure_equals_the_allocating_sums(self, seed, m, kinds):
        W, z0 = _mixed_case(seed, m, kinds)
        cfg = SolverConfig(method=Method.MAP)
        problem, x = _prod_problem(W, z0, cfg)
        assert type(problem) is _Diagonal and problem._work is not None
        final = run_prod(W, z0, cfg).final_point.reshape(W.m, W.block_dim).mean(axis=0)
        work = W._workspace()
        for point in (x, final, x):  # back to the start: nothing carries over
            _, g, (total, sq) = problem.measure(point)
            expected_total, expected_sq = W._projection_sums(point, work)
            assert total.tobytes() == expected_total.tobytes()
            assert (sq, g) == (expected_sq, np.sqrt(expected_sq))

    @pytest.mark.parametrize("method", [Method.CRM, Method.MAP])
    def test_iterates_and_sums_share_no_memory(self, method):
        # the steps write into the sum of a measurement; neither it nor the
        # next iterate may be a view of the workspace or of an earlier
        # iterate, which must keep its bytes (MAP's stall rule compares them)
        W, z0 = _mixed_case(*sorted(MIXED_PINS)[0])
        problem, x = _prod_problem(W, z0, SolverConfig(method=method))
        P = problem._work[0]
        iterates, kept = [x], [x.tobytes()]
        for _ in range(8):
            y, g, data = problem.measure(x)
            x = problem.step(x, y, g, data)
            for new in (data[0], x):
                assert not np.shares_memory(new, P)
                assert not any(np.shares_memory(new, z) for z in iterates)
            iterates.append(x)
            kept.append(x.tobytes())
            assert [z.tobytes() for z in iterates] == kept

    @pytest.mark.parametrize("seed, m", sorted(MIXED_PINS)[:2])
    def test_interleaved_runs_equal_the_same_runs_one_after_the_other(self, seed, m):
        W, z0 = _mixed_case(seed, m)
        _, z1 = _mixed_case(seed + 100, m)
        runs = [(SolverConfig(method=Method.CRM), z0), (SolverConfig(method=Method.MAP), z1),
                (SolverConfig(method=Method.MAP), z0)]
        steps = 15

        def steppers():
            for cfg, z in runs:
                yield _measured_steps(*_prod_problem(W, z, cfg), steps)

        one_after_the_other = [list(s) for s in steppers()]
        # one step of each run in turn, then each run's steps regrouped
        interleaved = list(zip(*zip(*steppers())))
        assert [list(s) for s in interleaved] == one_after_the_other
        for (cfg, z), trace in zip(runs, one_after_the_other):
            assert [g for g, _ in trace] == run_prod(W, z, cfg).gaps[:steps]


def test_only_a_product_of_halfspaces_gets_the_halfspace_kernel():
    class Shifted(Halfspace):
        pass

    a, b, c = np.eye(3)
    products = {
        "halfspaces": ProductSet([Halfspace(a, 1.0), Halfspace(b, 1.0)]),
        "mixed": ProductSet([Halfspace(a, 1.0), Ball(c, 1.0)]),
        "hyperplanes": ProductSet([Hyperplane(a, 1.0), Hyperplane(b, 1.0)]),
        "subclass": ProductSet([Shifted(a, 1.0), Shifted(b, 1.0)]),
        "mixed subclass": ProductSet([Halfspace(a, 1.0), Shifted(b, 1.0)]),
    }
    for name, W in products.items():
        kernel = W._halfspaces
        assert (type(kernel) is _HalfspaceRows) == (name == "halfspaces"), name
        assert kernel is None or kernel is W._groups[0][1], name
        # near the halfspaces MAP and DRM fit on w; far out MAP keeps x and
        # DRM runs in R^(nm)
        for start, far in (([5.0, 1.0, 2.0], False), ([1e300, 1.0, 2.0], True)):
            for method in Method:
                problem, _ = _prod_problem(W, lift(start, W.m), SolverConfig(method=method))
                if kernel is not None and method is not Method.CRM and not far:
                    expected = _RowSpace
                elif method is Method.DRM:
                    expected = _TwoSets
                else:
                    expected = _Diagonal if kernel is None else _Halfspaces
                assert type(problem) is expected, (name, start, method)
                if expected is _Halfspaces:  # the closed forms need no block array
                    assert not hasattr(problem, "_work"), (name, start, method)


@pytest.mark.parametrize("index", [0, 2])
def test_halfspace_projection_sums_equal_the_closed_form(index):
    # poly instance 0 (m = 57) and instance 2 (m = 171) at their first start:
    # the block array and the closed-form sums of _Halfspaces reduce the same
    # projections
    W, z0 = _poly_case(index, 0)
    x = z0.reshape(W.m, W.block_dim).mean(axis=0)
    total, sq = W._projection_sums(x, W._workspace())
    closed_total, closed_sq = _Halfspaces(W, Method.MAP)._sums(x)
    assert la.norm(total - closed_total) <= 1e-12 * la.norm(closed_total)
    assert abs(sq - closed_sq) <= 1e-12 * closed_sq


@pytest.mark.parametrize("W", [
    ProductSet([Ball([0.0, 0.0], 1.0), Halfspace([0.0, 1.0], 0.5)]),
    ProductSet([Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.5)]),
], ids=["_Diagonal", "_Halfspaces"])
def test_a_run_whose_first_measurement_fails_ends_at_its_start(W):
    # the block mean [inf, 0.5] of this start overflows, so no gap is measured,
    # and final_point is the lift of that mean for every method: a DRM run
    # lifts its start as a tracked point, not its first iterate
    z0 = lift([1e308, 0.5], 2)
    for method in Method:
        trace = run_prod(W, z0, SolverConfig(method=method))
        assert (trace.status, trace.iterations) == (Status.NONFINITE, 0), method
        assert trace.final_point.tobytes() == np.tile([np.inf, 0.5], 2).tobytes(), method


def test_drm_prod_runs_the_two_set_problem_on_w_in_group_order():
    # a ball, a box and a ball: group order [0, 2, 1]. DRM-prod is the two-set
    # DRM on W's inner product, its factors in group order, which builds the
    # kernels that W shares and projects as W does with the blocks permuted,
    # bitwise
    rng = np.random.default_rng(4)
    W = ProductSet([Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [0.5, 0.5]),
                    Ball([0.5, 0.0], 1.0)])
    assert W._order.tolist() == [0, 2, 1]
    cfg = SolverConfig(method=Method.DRM)
    problem, z = _prod_problem(W, lift([3.0, 1.0], 3), cfg)
    assert type(problem) is _TwoSets and type(problem.U) is DiagonalSubspace
    assert z.tobytes() == lift([3.0, 1.0], 3).tobytes()
    Wg = problem.K
    assert Wg is W._inner and _prod_problem(W, z, cfg)[0].K is Wg
    assert Wg._inner is None and Wg._order is None
    assert W._groups is Wg._groups  # no kernel is built twice
    assert Wg.factors == [W.factors[i] for i in (0, 2, 1)] and Wg.factors is not W.factors
    for _ in range(5):
        z = 3.0 * rng.standard_normal(W.dim)
        grouped = z.reshape(3, 2)[W._order].ravel()
        assert Wg._project(grouped).tobytes() == \
            W._project(z).reshape(3, 2)[W._order].ravel().tobytes()
    # a product in group order has no inner product and runs on itself
    assert TWO_BALLS._inner is None
    assert _prod_problem(TWO_BALLS, lift([0.0, 2.0], 2), cfg)[0].K is TWO_BALLS
    # W and its inner product die with their last references, with the
    # cyclic GC off
    gc.disable()
    try:
        refs = weakref.ref(W), weakref.ref(Wg)
        del W, Wg, problem
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_an_overflowing_gram_expansion_records_inf_as_in_r_nm():
    # from these finite starts the Gram expansion of the halfspace DRM-prod
    # gap on w (tol 1e300) overflows to inf - inf; the R^(nm) gap overflows
    # to inf, and the run on w records that. With tol 1e-6 the start is too
    # far out for w, and the run is the R^(nm) one
    W = ProductSet([Halfspace([1.0, 0.0, 0.0], 0.0), Halfspace([0.0, 1.0, 0.0], 0.0)])
    z0 = lift([1e305, 1e305, 1.0], 2)
    for tol, adapter in ((1e300, _RowSpace), (1e-6, _TwoSets)):
        cfg = SolverConfig(method=Method.DRM, tol=tol, max_iter=50)
        assert type(_prod_problem(W, z0, cfg)[0]) is adapter
        trace = run_prod(W, z0, cfg)
        ref = run(W, DiagonalSubspace(3, 2), z0, cfg)
        assert trace.gaps == ref.gaps == [np.inf] * 4 + [0.0], adapter
        assert (trace.iterations, trace.status) == (ref.iterations, ref.status) \
            == (4, Status.CONVERGED), adapter


def test_a_non_finite_entry_ends_a_row_space_run_as_on_x():
    # a normal of squared norm 1e-310: the projection of the start onto its
    # halfspace overflows, and MAP and DRM on w end NONFINITE at the
    # iteration where MAP on x and DRM in R^(nm) end so
    W = ProductSet([Halfspace([1e-155, 0.0, 0.0], -1.0), Halfspace([0.0, 1.0, 0.0], 0.0)])
    x0 = np.array([0.0, 1.0, 0.0])
    for method in (Method.MAP, Method.DRM):
        cfg = SolverConfig(method=method, max_iter=50)
        assert type(_prod_problem(W, lift(x0, 2), cfg)[0]) is _RowSpace
        trace = run_prod(W, lift(x0, 2), cfg)
        if method is Method.DRM:
            ref = run(W, DiagonalSubspace(3, 2), lift(x0, 2), cfg)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # as run_prod drives
                ref = _drive(_Halfspaces(W, method), x0, cfg)
        assert (trace.iterations, trace.status) == (ref.iterations, ref.status) \
            == (1, Status.NONFINITE), method


def test_row_space_is_the_halfspace_adapter_on_w():
    # poly instance 0 at its first start, at w = 0 and at the iterates of its
    # MAP-prod run: dist and lift at w are those of _Halfspaces at x_0 + A^T w,
    # and the gap is theirs up to the rounding of A x_0 - b + G w
    W, z0 = _poly_case(0, 0)
    cfg = SolverConfig(method=Method.MAP, max_iter=200)
    problem, w = _prod_problem(W, z0, cfg)
    assert type(problem) is _RowSpace and isinstance(problem, _Halfspaces)
    x0 = z0.reshape(W.m, W.block_dim).mean(axis=0)
    halfspaces = _Halfspaces(W, Method.MAP)
    for _ in range(cfg.max_iter):
        x = x0 + w @ W._halfspaces.A
        assert problem.dist(w) == halfspaces._dist(x)
        assert problem.lift(w).tobytes() == halfspaces.lift(x).tobytes()
        y, g, c = problem.measure(w)
        assert g == pytest.approx(halfspaces.measure(x)[1], rel=1e-12)
        w = problem.step(w, y, g, c)


@pytest.mark.parametrize("index", [0, 2])
def test_a_row_space_iteration_allocates_only_the_next_iterate(index):
    # poly instance 0 (m = 57) and instance 2 (m = 171) at their first start:
    # the measurement writes into the run's own vectors, and the step makes w
    W, z0 = _poly_case(index, 0)
    problem, w = _prod_problem(W, z0, SolverConfig(method=Method.MAP))
    assert type(problem) is _RowSpace
    measure, step = problem.measure, problem.step
    w = step(w, *measure(w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = step(w, *measure(w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float vector of length m and its array header
    assert peak - before <= 8 * W.m + 256


@pytest.mark.parametrize("case", [(0, 0), (2, 0), None], ids=["poly-0", "poly-2", "wide"])
def test_a_row_space_drm_iteration_allocates_a_few_m_vectors(case):
    # poly instance 0 (m = 57) and instance 2 (m = 171) at their first start,
    # and 3 halfspaces in R^20000, where one vector of R^n would take 160 kB:
    # an iteration allocates the next (w, s, u) and a few m-vectors besides
    W, z0 = _wide_halfspaces(3, 20_000) if case is None else _poly_case(*case)
    problem, w = _prod_problem(W, z0, SolverConfig(method=Method.DRM))
    assert type(problem) is _RowSpace
    measure, step = problem.measure, problem.step
    z = problem.start(w)
    z = step(z, *measure(z))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        z = step(z, *measure(z))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 7 * (8 * W.m + 128)


class TestHalfspaceGram:
    """``ProductSet._gram`` is ``A A^T`` for independent normals, and None
    for dependent ones, which more normals than dimensions always are."""

    @staticmethod
    def gram(A):
        return ProductSet([Halfspace(a, 0.0) for a in A])._gram

    @pytest.mark.parametrize("k, n", [(1, 3), (5, 5), (57, 200), (199, 200)])
    def test_independent_normals(self, rng, k, n):
        A = rng.standard_normal((k, n))
        G = self.gram(A)
        assert np.array_equal(G, G.T)
        assert la.norm(G - A @ A.T) <= 1e-14 * la.norm(A) ** 2

    def test_dependent_normals(self, rng):
        A = rng.standard_normal((4, 6))
        assert self.gram(rng.standard_normal((7, 6))) is None
        assert self.gram(np.vstack([A, A[0] - 2.0 * A[2]])) is None
        assert self.gram([[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0],
                          [0.0, -1.0, -0.5, 0.0]]) is None
        # a normal whose distance from the span of the others is below 2^-10
        # of its norm counts as dependent
        assert self.gram(np.vstack([A, A[1] + 1e-4 * rng.standard_normal(6)])) is None


def _adapter_runs(cfg):
    """(adapter class, entry point, its arguments) of every adapter that
    ``cfg.method`` reaches. CRM and MAP run on plane coordinates
    (``_ConeAffine``) or ``x`` (``_Diagonal``), DRM on span coordinates or in
    R^(nm) (``_TwoSets``), and MAP and DRM on a product of halfspaces on
    ``w`` (``_RowSpace``), CRM on ``x`` (``_Halfspaces``)."""
    mixed = ProductSet([Ball([0.0, 0.0, 0.0], 1.0), Box([-1.0] * 3, [1.0] * 3),
                        Halfspace([1.0, 0.0, 0.0], 0.5)])
    halfspaces = ProductSet([Halfspace([1.0, 0.0, 0.0], 0.5), Halfspace([0.0, 1.0, 0.0], 0.5)])
    start = np.array([5.0, 1.0, 2.0])
    yield "_TwoSets", run, (Ball([0.0] * 3, 1.0), AffineSubspace([[1.0, 1.0, 0.0]], [3.0]),
                            start, cfg)
    yield "_ConeAffine", run, (SecondOrderCone(3), AffineSubspace([[1.0, 0.0, 1.0]], [2.0]),
                               -start, cfg)
    diagonal = "_TwoSets" if cfg.method is Method.DRM else "_Diagonal"
    yield diagonal, run_prod, (mixed, lift(start, 3), cfg)  # several groups
    # one group, which holds a workspace too in a _Diagonal
    yield diagonal, run_prod, (TWO_BALLS, lift(start[:2], 2), cfg)
    rows = "_Halfspaces" if cfg.method is Method.CRM else "_RowSpace"
    yield rows, run_prod, (halfspaces, lift(start, 2), cfg)


# the problem and first iterate that each entry point hands _drive
PROBLEM_OF = {run: _problem, run_prod: _prod_problem}


@pytest.mark.parametrize("method", list(Method))
def test_recording_changes_nothing_about_a_run(method):
    # every Fejér and D-invariance check of the suite records through it
    cfg = SolverConfig(method=method, max_iter=50)
    for name, solve, args in _adapter_runs(cfg):
        assert type(PROBLEM_OF[solve](*args)[0]).__name__ == name
        bare = solve(*args)
        trace, iterates = recorded(solve, *args)
        assert trace.iterations > 0, name
        assert (trace.status, trace.iterations) == (bare.status, bare.iterations), name
        assert np.array(trace.gaps).tobytes() == np.array(bare.gaps).tobytes(), name
        assert trace.final_point.tobytes() == bare.final_point.tobytes(), name
        assert len(iterates) == trace.iterations + 1, name


@pytest.mark.parametrize("method", list(Method))
def test_each_adapter_binds_the_step_of_its_method(method):
    cfg = SolverConfig(method=method, max_iter=50)
    for name, solve, args in _adapter_runs(cfg):
        problem = PROBLEM_OF[solve](*args)[0]
        step = problem.step
        own = getattr(type(problem), f"_{method.value.lower()}_step")
        assert (step.__self__, step.__func__) == (problem, own), name


class TestProblemsAreFreed:
    """Every problem dies with its last reference, with the cyclic GC off:
    none of them sits in a reference cycle."""

    @pytest.mark.parametrize("method", list(Method))
    def test_problems_die_with_their_last_reference(self, method):
        cfg = SolverConfig(method=method, max_iter=50)
        alive = []
        gc.disable()
        try:
            for name, solve, args in _adapter_runs(cfg):
                problem, z = PROBLEM_OF[solve](*args)
                assert type(problem).__name__ == name
                if name == "_Diagonal":
                    assert problem._work is not None
                ref = weakref.ref(problem)
                _drive(problem, z, cfg)
                del problem
                if ref() is not None:
                    alive.append(name)
        finally:
            gc.enable()
        assert alive == []
