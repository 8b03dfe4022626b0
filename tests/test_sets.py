"""Projection/reflection catalog: examples, invariants, JSON codec."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import linalg as la

from crmfeas.errors import DimensionMismatch, ParseError
from crmfeas.methods import Method
from crmfeas.product_space import DiagonalSubspace, ProductSet, _Halfspaces
from crmfeas.sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
    _BallRows,
    _BoxRows,
    _ConeRows,
    _HalfspaceRows,
    _row_projector,
    as_point,
    set_from_dict,
    set_to_dict,
)
from conftest import ANCHORED_KINDS, anchored_point, anchored_set


def brute_force_soc3_projection(x, lo=-1.6, hi=1.6, step=0.01):
    """Grid-search the nearest point of the 3-d second-order cone to ``x``.

    Independent oracle: enumerate feasible (t, u1, u2) on a grid and minimize
    the Euclidean distance directly.
    """
    ts = np.arange(0.0, hi, step)
    us = np.arange(lo, hi, step)
    U1, U2 = np.meshgrid(us, us, indexing="ij")
    best, best_pt = np.inf, None
    for t in ts:
        mask = np.hypot(U1, U2) <= t
        if not mask.any():
            continue
        d2 = (t - x[0]) ** 2 + (U1[mask] - x[1]) ** 2 + (U2[mask] - x[2]) ** 2
        i = int(np.argmin(d2))
        if d2[i] < best:
            best = d2[i]
            best_pt = np.array([t, U1[mask][i], U2[mask][i]])
    return best_pt


class TestProjectExamples:
    def test_halfspace_drops_positive_component(self):
        s = Halfspace([1.0, 0.0], 0.0)
        assert np.allclose(s.project([2.0, 3.0]), [0.0, 3.0])

    def test_affine_symmetry_forces_equal_coordinates(self):
        s = AffineSubspace([[1.0, 1.0]], [2.0])
        assert np.allclose(s.project([0.0, 0.0]), [1.0, 1.0])

    def test_soc_boundary_case_against_brute_force(self):
        cone = SecondOrderCone(3)
        x = np.array([0.0, 1.0, 0.0])
        expected = np.array([0.5, 0.5, 0.0])  # frozen from the grid oracle
        assert np.allclose(cone.project(x), expected, atol=1e-12)
        grid_pt = brute_force_soc3_projection(x)
        assert la.norm(grid_pt - expected) < 0.02  # within grid resolution

    def test_soc_interior_point_fixed(self):
        cone = SecondOrderCone(3)
        x = np.array([2.0, 1.0, 0.0])
        assert np.array_equal(cone.project(x), x)

    def test_soc_polar_maps_to_origin(self):
        cone = SecondOrderCone(3)
        assert np.array_equal(cone.project([-2.0, 1.0, 0.0]), np.zeros(3))
        # apex edge case: u = 0, t < 0
        assert np.array_equal(cone.project([-1.0, 0.0, 0.0]), np.zeros(3))

    def test_ball_center_is_fixed(self):
        b = Ball([1.0, 2.0], 0.5)
        assert np.array_equal(b.project([1.0, 2.0]), [1.0, 2.0])

    def test_box_clips(self):
        b = Box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(b.project([2.0, -1.0]), [1.0, 0.0])


class TestReflectExamples:
    def test_hyperplane_mirror(self):
        s = Hyperplane([0.0, 1.0], 1.0)
        assert np.allclose(s.reflect([3.0, 0.0]), [3.0, 2.0])

    def test_ball_exterior_against_analytic_projection(self):
        b = Ball([0.0, 0.0], 1.0)
        x = np.array([2.0, 1.0])
        # oracle: radial projection of an exterior point, then 2P - Id
        proj = x / la.norm(x)
        expected = 2.0 * proj - x
        assert np.allclose(b.reflect(x), expected, atol=1e-14)
        assert np.allclose(expected, [-0.21114562, -0.10557281], atol=1e-8)

    @pytest.mark.parametrize("kind", ANCHORED_KINDS)
    def test_member_is_fixed_point(self, rng, kind):
        x = anchored_point(rng, 4, kind)
        s = anchored_set(rng, kind, x)
        assert np.allclose(s.reflect(x), x, atol=1e-12)


class TestContains:
    def test_ball_center_zero_tol(self):
        assert Ball([0.0, 0.0], 1.0).contains([0.0, 0.0], tol=0.0)

    def test_halfspace_within_tolerance(self):
        assert Halfspace([1.0, 0.0], 0.0).contains([1e-7, 0.0], tol=1e-6)

    def test_soc_negative_t_outside(self):
        assert not SecondOrderCone(2).contains([-1.0, 0.0], tol=1e-6)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            Ball([0.0], 1.0).contains([0.0], tol=-1.0)


def _random_catalog(rng, dim):
    x0 = rng.standard_normal(dim)
    A = rng.standard_normal((max(1, dim // 2), dim))
    lower = rng.standard_normal(dim)
    return [
        Halfspace(rng.standard_normal(dim) + 0.1, float(rng.standard_normal())),
        Hyperplane(rng.standard_normal(dim) + 0.1, float(rng.standard_normal())),
        AffineSubspace(A, A @ x0),
        Ball(rng.standard_normal(dim), 0.1 + abs(rng.standard_normal())),
        Box(lower, lower + np.abs(rng.standard_normal(dim))),
        SecondOrderCone(dim),
    ]


class TestInvariants:
    def test_projection_idempotent(self, rng):
        for dim in (2, 3, 7):
            for s in _random_catalog(rng, dim):
                for _ in range(20):
                    x = 3.0 * rng.standard_normal(dim)
                    p = s.project(x)
                    scale = 1.0 + la.norm(p)
                    assert la.norm(s.project(p) - p) <= 1e-12 * scale, s

    def test_firm_nonexpansiveness(self, rng):
        for dim in (2, 5):
            for s in _random_catalog(rng, dim):
                for _ in range(30):
                    x = 4.0 * rng.standard_normal(dim)
                    y = 4.0 * rng.standard_normal(dim)
                    px, py = s.project(x), s.project(y)
                    lhs = la.norm(px - py) ** 2
                    rhs = float((px - py) @ (x - y))
                    assert lhs <= rhs + 1e-10, s

    def test_reflection_involution_on_affine_sets(self, rng):
        for dim in (2, 4, 6):
            x0 = rng.standard_normal(dim)
            A = rng.standard_normal((dim // 2, dim))
            for s in (Hyperplane(rng.standard_normal(dim) + 0.1, 0.3),
                      AffineSubspace(A, A @ x0)):
                for _ in range(20):
                    x = 3.0 * rng.standard_normal(dim)
                    rr = s.reflect(s.reflect(x))
                    assert la.norm(rr - x) <= 1e-10 * (1.0 + la.norm(x))

    def test_projection_optimality_characterization(self, rng):
        # (x - P(x))^T (s - P(x)) <= 0 for every s in the set
        for kind in ANCHORED_KINDS:
            for _ in range(25):
                anchor = anchored_point(rng, 5, kind)
                s = anchored_set(rng, kind, anchor)
                x = 4.0 * rng.standard_normal(5)
                px = s.project(x)
                member = s.project(3.0 * rng.standard_normal(5))
                assert float((x - px) @ (member - px)) <= 1e-10

    def test_membership_of_projection(self, rng):
        for dim in (2, 6):
            for s in _random_catalog(rng, dim):
                x = 5.0 * rng.standard_normal(dim)
                assert s.contains(s.project(x), tol=1e-10 * (1.0 + la.norm(x)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_soc_projection_properties(coords):
    cone = SecondOrderCone(3)
    x = np.asarray(coords)
    p = cone.project(x)
    assert p[0] >= la.norm(p[1:]) - 1e-9 * (1.0 + abs(p[0]))  # lands in the cone
    assert la.norm(cone.project(p) - p) <= 1e-9 * (1.0 + la.norm(p))
    assert la.norm(p - x) <= la.norm(x) + 1e-9  # origin is feasible


def _former_projection(s, x):
    """The projection by the formula each catalog kernel had before it was
    rewritten in fewer numpy calls; the reference for the bitwise pins."""
    with np.errstate(all="ignore"):
        if isinstance(s, SecondOrderCone):
            t, u = x[0], x[1:]
            nu = float(la.norm(u))
            if nu <= t:
                return x
            if nu <= -t:
                return np.zeros_like(x)
            scale = 0.5 * (t + nu)
            out = np.empty_like(x)
            out[0] = scale
            out[1:] = (scale / nu) * u
            return out
        if isinstance(s, Ball):
            d = x - s.center
            dist = float(la.norm(d))
            return x if dist <= s.radius else s.center + (s.radius / dist) * d
        if isinstance(s, Box):
            return np.clip(x, s.lower, s.upper)
        r = float(s.a @ x) - s.b
        if isinstance(s, Halfspace) and r <= 0.0:
            return x
        return x - (r / s._a_sq) * s.a


def _assert_former_bits(s, x):
    with np.errstate(over="ignore"):  # numpy reports an overflowing x . x, as before
        p = s._project(x)
    former = _former_projection(s, x)
    assert (p is x) == (former is x), s
    assert np.array_equal(p, former, equal_nan=True), s
    assert np.array_equal(np.signbit(p), np.signbit(former)), s  # -0.0 vs 0.0


def _former_halfspace_residuals(rows, x):
    # the second of the closed-form sums of _Halfspaces, sum_i ||P_i(x) - x||^2
    excess = np.maximum(rows.A @ x - rows.b, 0.0)
    return float(excess @ (excess / rows.a_sq))


class TestKernelsKeepTheirFormerBits:
    """Each catalog kernel gives bitwise what its former formula gave. Besides
    an overflowing squared norm, the kernels raise no ``RuntimeWarning`` (the
    suite makes one an error); the former cone kernel warned on ``inf / inf``."""

    @settings(max_examples=300, deadline=None)
    @given(vectors=st.integers(2, 12).flatmap(lambda n: st.lists(
               st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
               min_size=4, max_size=4)),
           x_exp=st.integers(-150, 200), set_exp=st.integers(-150, 200))
    def test_random_points(self, vectors, x_exp, set_exp):
        x, c, w, a = (np.array(v) for v in vectors)
        x = x * 10.0 ** x_exp
        c, w = c * 10.0 ** set_exp, np.abs(w) * 10.0 ** set_exp
        a[0] += 2.0  # a normal of norm at least 1
        b = float(c @ a)
        for s in (SecondOrderCone(x.size), Ball(c, 10.0 ** set_exp),
                  Box(c - w, c + w), Box(c, c), Halfspace(a, b), Hyperplane(a, b)):
            _assert_former_bits(s, x)
        W = ProductSet([Halfspace(a, b), Halfspace(-a, b), Halfspace(a, b - 1.0)])
        with np.errstate(over="ignore"):
            assert (_Halfspaces(W, Method.MAP)._sums(x)[1]
                    == _former_halfspace_residuals(W._halfspaces, x))

    @pytest.mark.parametrize("x", [
        [0.0, 0.0, 0.0],  # the apex
        [-0.0, 0.0, -0.0],
        [-2.0, 1.0, 0.0],  # the polar cone
        [-5.0, 3.0, -4.0],  # its boundary
        [5.0, 3.0, -4.0],  # ||u|| = t
        [-1.0, 0.0, 0.0],  # ||u|| = 0
        [1.0, -0.0, 0.0],
        [0.0, 3.0, 4.0],
        [1e200, -1e200, 1e200],  # ||u|| overflows
        [-1e200, 1e-300, 0.0],
    ])
    def test_cone_edge_points(self, x):
        _assert_former_bits(SecondOrderCone(3), np.array(x))

    def test_a_point_of_the_cone_is_returned_as_is(self):
        x = np.array([5.0, 3.0, -4.0])
        assert SecondOrderCone(3)._project(x) is x

    @pytest.mark.parametrize("x", [[1.0, -2.0], [1.0, -1.5], [1.3, -1.6], [4.0, 2.0]])
    def test_ball_center_sphere_and_outside(self, x):
        _assert_former_bits(Ball([1.0, -2.0], 0.5), np.array(x))

    @pytest.mark.parametrize("x", [
        [0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0],
        [-1.0, 1.0, -0.0, 3.0], [2.0, -2.0, 1.0, -0.0],
    ])
    def test_box_faces_and_signed_zeros(self, x):
        box = Box([0.0, -0.0, -0.0, -1.0], [0.0, 0.0, 1.0, -0.0])
        _assert_former_bits(box, np.array(x))

    @pytest.mark.parametrize("x", [[2.0, 5.0], [2.0 + 1e-15, -3.0], [1.0, 0.0], [3.0, 1.0]])
    def test_halfspace_boundary(self, x):
        for s in (Halfspace([1.0, 0.0], 2.0), Hyperplane([1.0, 0.0], 2.0),
                  Halfspace([0.6, 0.8], 1.2)):
            _assert_former_bits(s, np.array(x))


def _former_rows_projection(rows, X):
    """``rows.project(X)`` as each row kernel returned it before the kernels
    wrote into a row slice; the reference for the slice pins."""
    with np.errstate(all="ignore"):  # the former cone kernel warned on inf / inf
        if isinstance(rows, _HalfspaceRows):
            excess = np.maximum(np.einsum("ij,ij->i", rows.A, X) - rows.b, 0.0)
            return X - (excess / rows.a_sq)[:, None] * rows.A
        if isinstance(rows, _BallRows):
            D = X - rows.C
            dist = np.sqrt(np.einsum("ij,ij->i", D, D))
            D *= (rows.r / np.maximum(dist, rows.r))[:, None]
            D += rows.C
            np.copyto(D, X, where=(dist <= rows.r)[:, None])
            return D
        if isinstance(rows, _BoxRows):
            return np.minimum(np.maximum(X, rows.lower), rows.upper)
        if isinstance(rows, _ConeRows):
            t, U = X[:, 0], X[:, 1:]
            nu = np.sqrt(np.einsum("ij,ij->i", U, U))
            out = np.array(X)
            out[(nu <= -t) & (nu > t)] = 0.0
            mid = nu > np.abs(t)
            s = 0.5 * (t[mid] + nu[mid])
            out[mid, 0] = s
            out[mid, 1:] = (s / nu[mid])[:, None] * U[mid]
            return out
        return np.array([s._project(x) for s, x in zip(rows.sets, X)])


def _assert_same_bits(p, q):
    """Equal entries, NaN where NaN, and the same sign on every other entry
    (-0.0 against 0.0); the sign of a NaN is the platform's."""
    assert np.array_equal(p, q, equal_nan=True)
    numbers = ~np.isnan(q)
    assert np.array_equal(np.signbit(p[numbers]), np.signbit(q[numbers]))


def _slice_projection(rows, X):
    """``rows.project`` of a ``(k, n)`` array or of one point written into the
    middle rows of a larger array, whose rows around the slice must stay as
    they were."""
    big = np.full((len(rows.sets) + 2, X.shape[-1]), 7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the slice kernels warn on nothing here
        rows.project(X, big[1:-1])
    assert np.all(big[0] == 7.0) and np.all(big[-1] == 7.0)
    return big[1:-1]


class TestSliceKernelsKeepTheirBits:
    """Each row kernel writes into a row slice bitwise what ``rows.project(X)``
    returned before, signs of zeros included, on rows inside, outside and on
    the boundary of their sets."""

    # (the sets, one per row; the rows)
    CASES = {
        "ball": ([Ball([1.0, -2.0], 0.5)] * 4 + [Ball([0.0, 0.0], 1.0)] * 3,
                 [[1.0, -2.0], [1.0, -1.5], [1.3, -1.6], [4.0, 2.0],
                  [-0.0, 0.0], [0.0, -1.0], [-3.0, -0.0]]),
        "box": ([Box([0.0, -0.0, -0.0, -1.0], [0.0, 0.0, 1.0, -0.0])] * 4
                + [Box([-1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0])] * 2,
                [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [-1.0, 1.0, -0.0, 3.0],
                 [2.0, -2.0, 1.0, -0.0], [1.0, -1.0, 0.5, -0.0], [5.0, -0.0, -7.0, 1.0]]),
        "halfspace": ([Halfspace([1.0, 0.0], 2.0), Halfspace([0.6, 0.8], 1.2),
                       Halfspace([-1.0, 0.5], 1.0), Halfspace([1.0, 0.0], 2.0),
                       Halfspace([0.6, 0.8], 1.2)],
                      [[2.0, 5.0], [2.0 + 1e-15, -3.0], [-0.0, 0.0], [3.0, 1.0], [1.2, 0.6]]),
        "soc": ([SecondOrderCone(3)] * 10,
                [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-2.0, 1.0, 0.0], [-5.0, 3.0, -4.0],
                 [5.0, 3.0, -4.0], [-1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [0.0, 3.0, 4.0],
                 [1e200, -1e200, 1e200], [-1e200, 1e-300, 0.0]]),
        "hyperplane": ([Hyperplane([1.0, 0.0], 2.0), Hyperplane([0.6, 0.8], 1.2)] * 2,
                       [[2.0, 5.0], [-0.0, 0.0], [3.0, -1.0], [1.2, 0.6]]),
    }

    # (the balls; rows or one point that every ball holds): the ball kernel
    # copies them without its arithmetic. Entries -0.0, and rows exactly on
    # the sphere: |(0, 0.5)| = 0.5, |(3, 4)| = 5, |(-0.0, 5) - (1, 5)| = 1.
    HOLDING = {
        "ball rows": ([Ball([1.0, -2.0], 0.5), Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 5.0),
                       Ball([-0.0, 1.0], 2.0), Ball([2.0, -0.0], 1.0)],
                      [[1.0, -1.5], [-0.0, 0.0], [3.0, 4.0], [0.0, -0.0], [2.0, -0.0]]),
        "ball point": ([Ball([0.0, 0.0], 5.0), Ball([1.0, 5.0], 1.0), Ball([-0.0, 1.0], 4.0),
                        Ball([0.0, 0.0], 10.0)],
                       [-0.0, 5.0]),
    }

    @pytest.mark.parametrize("kind", sorted(CASES) + sorted(HOLDING))
    def test_edge_rows(self, kind):
        sets, X = {**self.CASES, **self.HOLDING}[kind]
        rows, X = _row_projector(sets), np.array(X)
        if kind in self.HOLDING:
            assert all(la.norm(x - b.center) <= b.radius
                       for b, x in zip(sets, np.broadcast_to(X, (len(sets), X.shape[-1]))))
        _assert_same_bits(_slice_projection(rows, X), _former_rows_projection(rows, X))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), k=st.integers(1, 6),
           x_exp=st.integers(-150, 200), set_exp=st.integers(-150, 200))
    def test_random_rows(self, seed, n, k, x_exp, set_exp):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((k, n)) * 10.0 ** x_exp
        C = rng.standard_normal((k, n)) * 10.0 ** set_exp
        w = np.abs(rng.standard_normal((k, n))) * 10.0 ** set_exp
        A = rng.standard_normal((k, n)) + 2.0 * np.eye(k, n)
        b = np.einsum("ij,ij->i", A, C)
        for sets in ([Ball(c, 10.0 ** set_exp) for c in C],
                     [Box(c - v, c + v) for c, v in zip(C, w)],
                     [Halfspace(a, bi) for a, bi in zip(A, b)],
                     [SecondOrderCone(n)] * k,
                     [Hyperplane(a, bi) for a, bi in zip(A, b)]):
            rows = _row_projector(sets)
            _assert_same_bits(_slice_projection(rows, X), _former_rows_projection(rows, X))
        # balls that hold every row, and balls that all hold the first row alone
        with np.errstate(over="ignore"):
            holding = ((la.norm(X - C, axis=1), X), (la.norm(X[0] - C, axis=1), X[0]))
        for dist, Y in holding:
            if np.all((0.0 < dist) & (dist < 1e300)):
                rows = _row_projector([Ball(c, 2.0 * d) for c, d in zip(C, dist)])
                _assert_same_bits(_slice_projection(rows, Y), _former_rows_projection(rows, Y))

    def test_cone_rows_follow_the_single_cone_row_by_row(self):
        # the apex, the polar axis, the polar cone, ||u|| = t, an overflowing
        # ||u||, and points outside both cones; their squared norms round
        # alike in dot and in einsum
        X = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, 0.0], [-1.0, 0.0, 0.0],
                      [-2.0, 1.0, -0.0], [-5.0, 3.0, -4.0], [5.0, 3.0, -4.0],
                      [5.0, -0.0, -5.0], [1e200, -1e200, 1e200], [-1.0, 1e200, 0.0],
                      [0.0, 3.0, 4.0], [1.0, -3.0, 4.0], [-1.0, -0.0, 4.0]])
        cone = SecondOrderCone(3)
        P = _slice_projection(_row_projector([cone] * len(X)), X)
        for p, x in zip(P, X):
            with np.errstate(over="ignore"):  # the single cone's dot reports the overflow
                _assert_same_bits(p, cone._project(x))


def test_a_cone_projects_a_nan_t_or_norm_to_the_origin_as_its_rows_do():
    # [NaN, 0, 0] has ||u|| = 0, which the closed form would divide by
    X = np.array([[np.nan, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, np.nan, 0.0]])
    cone = SecondOrderCone(3)
    P = _slice_projection(_row_projector([cone] * len(X)), X)
    for p, x in zip(P, X):
        _assert_same_bits(p, np.zeros(3))
        _assert_same_bits(cone._project(x), p)


def _kept_arrays(obj, seen=None):
    """Every array that a set keeps: its own, and those of the factors, row
    kernels and cached forms that it holds."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        items = obj
    elif type(obj).__module__.startswith("crmfeas."):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _kept_arrays(item, seen)


def _mixed_product():
    """A product whose group order permutes its blocks, so that it holds the
    product of its factors in group order."""
    W = ProductSet([Ball([0.0, 0.0, 0.0], 1.0), Box([-1.0] * 3, [1.0] * 3),
                    Halfspace([1.0, 0.0, 0.0], 0.5), Ball([0.5, 0.0, 0.0], 1.0),
                    SecondOrderCone(3), Hyperplane([0.0, 0.0, 1.0], 0.0)])
    assert W._order is not None and W._inner is not None
    return W


# (set, points): inside, on the boundary and outside, and for the cone in and
# on its polar too
PROJECT_CASES = {
    "halfspace": (Halfspace([1.0, 0.0, 0.0], 1.0),
                  [[0.0, 2.0, -1.0], [1.0, 2.0, -1.0], [3.0, 2.0, -1.0]]),
    "hyperplane": (Hyperplane([1.0, 1.0, 0.0], 2.0), [[1.0, 1.0, 5.0], [3.0, 0.0, 0.0]]),
    "affine-rows": (AffineSubspace([[1.0, 0.0, 1.0]], [2.0]),
                    [[1.0, 0.0, 1.0], [1.0, 5.0, 1.0], [3.0, 0.0, 0.0]]),
    "affine-null": (AffineSubspace([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0]),
                    [[1.0, 2.0, 0.0], [1.0, 2.0, 7.0], [0.0, 0.0, 0.0]]),
    "ball": (Ball([0.0, 0.0, 0.0], 1.0),
             [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 4.0, 0.0]]),
    "box": (Box([-1.0] * 3, [1.0] * 3), [[0.0, 0.5, 0.0], [1.0, 0.0, -1.0], [2.0, -3.0, 0.0]]),
    "soc": (SecondOrderCone(3),
            [[2.0, 1.0, 0.0], [5.0, 3.0, 4.0], [0.0, 0.0, 0.0], [-5.0, 3.0, 4.0],
             [-6.0, 1.0, 0.0], [0.0, 3.0, 4.0]]),
    "product": (_mixed_product(), [np.tile(x, 6) for x in
                                   ([0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [3.0, -4.0, 2.0])]),
    "grouped product": (_mixed_product()._inner, [np.tile([3.0, -4.0, 2.0], 6)]),
    "halfspace product": (ProductSet([Halfspace([1.0, 0.0, 0.0], 0.5),
                                      Halfspace([0.0, 1.0, 0.0], 0.5)]),
                          [[0.0] * 6, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]),
    "diagonal": (DiagonalSubspace(3, 2), [[1.0, 2.0, 3.0] * 2, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("name", PROJECT_CASES)
def test_project_returns_its_argument_or_a_new_array(name):
    # a DRM step writes into the projection it measured: it must not be an
    # array that the set keeps, so that writing into it changes no later
    # projection
    s, points = PROJECT_CASES[name]
    kept = list(_kept_arrays(s))
    for point in points:
        x = np.array(point, dtype=float)
        before = s._project(x.copy()).tobytes()
        p = s._project(x)
        assert p is x or not np.shares_memory(p, x), (name, point)
        assert not any(np.shares_memory(p, a) for a in kept), (name, point)
        p += 1.0
        assert s._project(np.array(point, dtype=float)).tobytes() == before, (name, point)


class TestAffineBasis:
    """The projector keeps a row-space basis up to rank n / 2 and a null-space
    basis above; both must give the same projection."""

    N = 8

    def systems(self, rng):
        """(A, b, rank) for every rank 1..8 in R^8, and a consistent system with
        more rows than its rank, which is above n / 2."""
        for rank in range(1, self.N + 1):
            A = rng.standard_normal((rank, self.N))
            yield A, A @ rng.standard_normal(self.N), rank
        A = rng.standard_normal((10, 6)) @ rng.standard_normal((6, self.N))
        yield A, A @ rng.standard_normal(self.N), 6

    def test_projection_matches_the_pseudoinverse(self, rng):
        for A, b, rank in self.systems(rng):
            U = AffineSubspace(A, b)
            assert U.rank == rank
            # one basis, of the smaller of the row and the null space
            assert U._basis.size == self.N * min(rank, self.N - rank)
            for _ in range(5):
                x = 10.0 * rng.standard_normal(self.N)
                p = U.project(x)
                tol = 1e-12 * (1.0 + la.norm(x))
                expected = x - la.pinv(A, rcond=1e-10) @ (A @ x - b)
                assert la.norm(p - expected) <= tol
                assert la.norm(U.project(p) - p) <= tol
                assert la.norm(A @ p - b) <= tol * la.norm(A, 2)

    def test_cone_frame_is_built_once_from_the_projector(self, rng):
        e0 = np.eye(self.N)[0]
        for A, b, _ in self.systems(rng):
            U = AffineSubspace(A, b)
            frame = U._cone_frame
            assert U._cone_frame is frame
            w, first, gram = frame
            assert w.shape == (self.N,)  # n floats besides the projector
            assert la.norm(w - (e0 - la.pinv(A, rcond=1e-10) @ (A @ e0))) <= 1e-12
            xp, wt = U._xp[1:], w[1:]
            assert first == (U._xp[0], w[0])
            # another order of summation than the cached product: rounding
            # relative to ||x_p||^2, as ||w|| <= 1
            assert np.allclose(gram, [xp @ xp, xp @ wt, wt @ wt], rtol=0.0,
                               atol=1e-13 * (1.0 + xp @ xp))


class TestConstructionErrors:
    def test_zero_normal(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            Hyperplane([0.0, 0.0], 1.0)

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("a, b", [
        ([1e-170, 0.0], 0.0),  # a.a underflows to 0
        ([1e200, 0.0], 0.0),  # a.a overflows to inf
        ([1.0, 0.0], np.nan),
        ([1.0, 0.0], np.inf),
    ])
    def test_normal_and_offset_must_be_usable(self, cls, a, b):
        with pytest.raises(ValueError):
            cls(a, b)

    def test_inconsistent_affine_system(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AffineSubspace([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])

    def test_rank_deficient_but_consistent_affine(self):
        s = AffineSubspace([[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0])
        assert s.rank == 1
        assert np.allclose(s.project([0.0, 0.0]), [1.0, 1.0])

    def test_box_ordering(self):
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_ball_radius(self):
        with pytest.raises(ValueError):
            Ball([0.0], -1.0)
        with pytest.raises(ValueError):
            Ball([0.0], np.nan)

    def test_ball_radius_must_be_finite(self):
        # an infinite radius made the stacked ball projection divide inf by inf
        with pytest.raises(ValueError):
            Ball([0.0, 0.0], np.inf)

    def test_soc_dimension(self):
        with pytest.raises(ValueError):
            SecondOrderCone(1)

    def test_soc_dimension_must_be_finite(self):
        # ValueError like every other bad dimension, not OverflowError from int(inf)
        with pytest.raises(ValueError):
            SecondOrderCone(float("inf"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ball([0.0, 0.0], 1.0).project([1.0, 2.0, 3.0])

    def test_non_finite_point(self):
        with pytest.raises(ValueError):
            as_point([1.0, np.nan])
        with pytest.raises(ValueError):
            Ball([0.0], 1.0).project([np.inf])


class TestJsonCodec:
    def test_round_trip_all_variants(self, rng):
        x0 = rng.standard_normal(3)
        A = rng.standard_normal((2, 3))
        sets = [
            Halfspace([1.0, -2.0, 0.5], 0.25),
            Hyperplane([0.0, 1.0, 0.0], -1.5),
            AffineSubspace(A, A @ x0),
            Ball([0.1, 0.2, 0.3], 2.5),
            Box([-1.0, -2.0, -3.0], [1.0, 2.0, 3.0]),
            SecondOrderCone(3),
        ]
        for s in sets:
            t = set_from_dict(set_to_dict(s))
            assert type(t) is type(s)
            for _ in range(5):
                x = 3.0 * rng.standard_normal(3)
                assert np.array_equal(s.project(x), t.project(x))

    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown set type"):
            set_from_dict({"type": "simplex", "n": 3})

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing"):
            set_from_dict({"type": "ball", "center": [0.0, 0.0]})

    def test_not_a_dict(self):
        with pytest.raises(ParseError):
            set_from_dict(["halfspace"])

    def test_invalid_values_become_parse_errors(self):
        with pytest.raises(ParseError):
            set_from_dict({"type": "ball", "center": [0.0], "radius": -1.0})

    @pytest.mark.parametrize("kind", [["halfspace"], {"a": 1}, 3, None])
    def test_type_that_is_not_a_string(self, kind):
        with pytest.raises(ParseError, match="unknown set type"):
            set_from_dict({"type": kind, "a": [1.0], "b": 0.0})

    @pytest.mark.parametrize("d", [
        {"type": "halfspace", "a": [1.0, 0.0], "b": [1, 2]},
        {"type": "hyperplane", "a": {"x": 1.0}, "b": 0.0},
        {"type": "soc", "n": [3]},
        {"type": "soc", "n": float("inf")},
        {"type": "halfspace", "a": [1e-170, 0.0], "b": 0.0},
        {"type": "hyperplane", "a": [1.0, 0.0], "b": float("nan")},
        {"type": "ball", "center": [0.0], "radius": float("nan")},
    ])
    def test_malformed_fields_become_parse_errors(self, d):
        with pytest.raises(ParseError, match="invalid"):
            set_from_dict(d)
