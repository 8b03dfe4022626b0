"""Product-space lifting, projections, the CRM-prod step, and the prod driver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import linalg as la

from crmfeas.errors import DimensionMismatch, NotDiagonal, NotInAffine
from crmfeas.instances import derive_seed, gen_polyhedral_instance, gen_start
from crmfeas.methods import Method, SolverConfig, Status, run
from crmfeas.product_space import (
    DIAG_TOL,
    DiagonalSubspace,
    ProductSet,
    crm_prod_step,
    lift,
    restrict,
    run_prod,
)
from crmfeas.sets import AffineSubspace, Ball, Box, Halfspace, SecondOrderCone
from conftest import ANCHORED_KINDS, anchored_affine, anchored_point, anchored_set

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
        # averaging definition, visible when the diagonality check is waived
        assert np.array_equal(restrict([1.0, 3.0, 3.0, 5.0], 2, tol=np.inf), [2.0, 4.0])

    def test_restrict_rejects_disagreeing_blocks(self):
        with pytest.raises(NotDiagonal):
            restrict([0.0, 0.0, 1.0, 1.0], 2)

    def test_restrict_bad_block_count(self):
        with pytest.raises(DimensionMismatch):
            restrict([1.0, 2.0, 3.0], 2)

    def test_lift_requires_positive_m(self):
        with pytest.raises(ValueError):
            lift([1.0], 0)


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
        factors = [anchored_affine(rng, anchor) if kind == "affine"
                   else anchored_set(rng, kind, anchor) for kind in kinds]
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
            for x in points:
                ps = [f._project(x) for f in sets]
                tol = 1e-12 * (1.0 + la.norm(x))
                total, sq = W._projection_sums(x)
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
        cfg = SolverConfig(method=Method.MAP, max_iter=1, tol=1e-12, record_trace=True)
        trace = run_prod(W, z, cfg)
        y0 = D.project(z)
        assert np.array_equal(trace.iterates[0], y0)
        assert np.array_equal(trace.iterates[1], D.project(W.project(y0)))
        assert not np.allclose(trace.iterates[1], W.project(y0))

    def test_drm_prod_ordering_pinned(self):
        # DRM-prod reflects through D first: (z + R_W(R_D z)) / 2
        z = np.array([0.0, 2.0, 0.5, 2.0])
        W, D = TWO_BALLS, DiagonalSubspace(2, 2)
        cfg = SolverConfig(method=Method.DRM, max_iter=2, tol=1e-12, record_trace=True)
        trace = run_prod(W, z, cfg)
        z1 = trace.iterates[1]
        expected = 0.5 * (z1 + W.reflect(D.reflect(z1)))
        assert np.allclose(trace.iterates[2], expected, atol=1e-15)
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
        cfg = SolverConfig(method=Method.CRM, tol=1e-6, record_trace=True)
        trace = run_prod(TWO_BALLS, lift([0.0, 2.0], 2), cfg)
        assert trace.status is Status.CONVERGED
        # D-invariance along the whole trajectory
        D = DiagonalSubspace(2, 2)
        for z in trace.iterates:
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
            x = restrict(trace.final_point, 2, tol=1e-6)
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
        cfg = SolverConfig(method=Method.MAP, tol=1e-6, record_trace=True)
        trace = run_prod(OVERLAP, lift([0.0, 3.0], 2), cfg)
        assert len(trace.gaps) == trace.iterations + 1
        assert len(trace.iterates) == trace.iterations + 1
        assert trace.gaps[-1] < 1e-6

    def test_generic_two_set_driver_also_works_on_w_and_d(self):
        # one driver, two wirings: K := W, U := D with the two-set gap rule
        D = DiagonalSubspace(2, 2)
        trace = run(OVERLAP, D, lift([0.0, 2.0], 2), SolverConfig(method=Method.CRM, tol=1e-6))
        assert trace.status is Status.CONVERGED
        x = restrict(trace.final_point, 2, tol=1e-5)
        for ball in OVERLAP.factors:
            assert ball.contains(x, tol=1e-5)

    def test_crm_prod_iterates_stay_on_the_diagonal(self):
        # without re-projecting onto D, rounding carried these iterates up to
        # 3e-4 (relative) off D over 213 iterations
        inst = gen_polyhedral_instance(200, derive_seed(137, 1, 2))
        start = gen_start(inst, derive_seed(137, 2, 2, 0), min_gap=1e-6)
        W = ProductSet(inst.sets)
        D = DiagonalSubspace(W.block_dim, W.m)
        trace = run_prod(W, start.projected,
                         SolverConfig(method=Method.CRM, tol=1e-6, record_trace=True))
        assert trace.status is Status.CONVERGED
        for z in trace.iterates:
            assert la.norm(z - D.project(z)) <= DIAG_TOL * (1.0 + la.norm(z))
        restrict(trace.final_point, W.m)  # raises NotDiagonal past DIAG_TOL

    def test_serial_method_rejected(self):
        with pytest.raises(ValueError):
            run_prod(OVERLAP, np.zeros(4), SolverConfig(method="SerialCRM"))


def _assert_matches_reference(W, z0, cfg):
    """run_prod (CRM and MAP in R^n) against the R^(nm) driver run(W, D)."""
    fast = run_prod(W, z0, cfg)
    ref = run(W, DiagonalSubspace(W.block_dim, W.m), z0, cfg)
    assert (fast.iterations, fast.status) == (ref.iterations, ref.status)
    scale = 1.0 + la.norm(ref.final_point)
    assert la.norm(fast.final_point - ref.final_point) <= 1e-10 * scale
    return fast


def _assert_steps_match_crm_prod_step(W, trace):
    for z, z_next in zip(trace.iterates, trace.iterates[1:]):
        assert la.norm(z_next - crm_prod_step(W, z)) <= 1e-12 * (1.0 + la.norm(z))


def _poly_case(index, start):
    inst = gen_polyhedral_instance(200, derive_seed(137, 1, index))
    z0 = gen_start(inst, derive_seed(137, 2, index, start), min_gap=1e-6).projected
    return ProductSet(inst.sets), z0


class TestIterationInRn:
    """CRM and MAP of run_prod iterate x in R^n; they must retrace run(W, D)."""

    def test_poly_grid_starts_match_the_product_space_driver(self):
        # the reference polyhedral grid: instance 0 of base seed 137 (m = 57)
        crm = SolverConfig(method=Method.CRM, tol=1e-6, record_trace=True)
        for j in range(20):
            W, z0 = _poly_case(0, j)
            trace = _assert_matches_reference(W, z0, crm)
            assert trace.status is Status.CONVERGED
            _assert_steps_match_crm_prod_step(W, trace)
        # MAP takes about a thousand R^(nm) iterations per start; three suffice
        for j in range(3):
            W, z0 = _poly_case(0, j)
            trace = _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, tol=1e-6))
            assert trace.status is Status.CONVERGED

    @pytest.mark.parametrize("index", [2, 7])
    def test_m171_instances_match_the_product_space_driver(self, index):
        W, z0 = _poly_case(index, 0)
        assert W.m == 171
        trace = _assert_matches_reference(
            W, z0, SolverConfig(method=Method.CRM, tol=1e-6, record_trace=True))
        assert trace.status is Status.CONVERGED
        _assert_steps_match_crm_prod_step(W, trace)
        # the first 300 MAP iterations, of 4,656 (instance 2) and 6,518 (instance 7)
        trace = _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, max_iter=300))
        assert trace.status is Status.MAX_ITER

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
        trace = _assert_matches_reference(
            W, z0, SolverConfig(method=Method.CRM, max_iter=2000, record_trace=True))
        _assert_steps_match_crm_prod_step(W, trace)
        _assert_matches_reference(W, z0, SolverConfig(method=Method.MAP, max_iter=2000))

    @pytest.mark.parametrize("method", [Method.CRM, Method.MAP])
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
        tracemalloc.start()
        try:
            trace = run_prod(W, z0, SolverConfig(method=method, max_iter=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations > 0 and trace.final_point.shape == (n * m,)
        assert peak < 1.25 * 8 * n * m


def _mixed_case(seed, m):
    """``m`` anchored factors in R^100, the four kinds in turn and then shuffled,
    with a start off every factor."""
    rng = np.random.default_rng(seed)
    anchor = anchored_point(rng, 100, "soc")
    kinds = [ANCHORED_KINDS[i % len(ANCHORED_KINDS)] for i in range(m)]
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
