"""Shared helpers: anchored random sets with a known common point, and the
iterates of a run, recorded on the test side of the driver."""

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy import linalg as la

from crmfeas import methods, product_space
from crmfeas.methods import Method, _drive
from crmfeas.sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
)

ANCHORED_KINDS = ("ball", "halfspace", "box", "soc")


def _problem_file(kind, n, m, sets, affine=None):
    return {"schema": 1, "kind": kind, "n": n, "m": m, "seed": 0, "sets": sets,
            "affine": affine, "certificate": None}


_X, _Y = ({"type": "halfspace", "a": a, "b": 1.0} for a in ([1.0, 0.0], [0.0, 1.0]))
# problem files, without a certificate, whose parts do not make one problem,
# and the reason the reader gives for each
INCONSISTENT_PROBLEMS = {
    "set-dimension": (_problem_file("polyhedral", 3, 2, [_X, _Y]),
                      "Halfspace of dimension 2 in a problem of dimension n = 3"),
    "set-dimensions-differ": (
        _problem_file("polyhedral", 2, 2,
                      [_X, {"type": "halfspace", "a": [0.0, 1.0, 0.0], "b": 1.0}]),
        "Halfspace of dimension 3 in a problem of dimension n = 2"),
    "cone-dimension": (_problem_file("affine_conic", 3, 1, [{"type": "soc", "n": 4}],
                                     {"A": [[1.0, 0.0, 0.0]], "b": [1.0]}),
                       "SecondOrderCone of dimension 4 in a problem of dimension n = 3"),
    "affine-dimension": (_problem_file("affine_conic", 3, 1, [{"type": "soc", "n": 3}],
                                       {"A": [[1.0, 0.0]], "b": [1.0]}),
                         "AffineSubspace of dimension 2 in a problem of dimension n = 3"),
    "m-is-not-the-set-count": (_problem_file("polyhedral", 2, 3, [_X, _Y]),
                               "polyhedral instance has m = 3 but 2 sets"),
    "polyhedral-with-affine": (_problem_file("polyhedral", 2, 2, [_X, _Y],
                                             {"A": [[1.0, 1.0]], "b": [9.0]}),
                               "polyhedral instance has no affine part"),
}

# a problem file in R^5 with two halfspaces, and the n, m or seed of it that
# is not a JSON integer, which int() would truncate or coerce, with the reason
# the reader gives
_IN_R5 = _problem_file("polyhedral", 5, 2, [
    {"type": "halfspace", "a": [float(i == j) for j in range(5)], "b": 1.0} for i in range(2)])
NON_INTEGER_FIELDS = {
    f"{name}-{kind}": ({**_IN_R5, name: value},
                       f"field '{name}' must be an integer, got {json.dumps(value)}")
    for name, kind, value in (("n", "float", 5.9), ("m", "float", 2.5), ("seed", "float", 7.8),
                              ("seed", "bool", True), ("n", "string", "5"))
}


def anchored_point(rng, dim, kind, scale=2.0):
    """A random point feasible for an anchored set of the given kind.

    For the second-order cone the anchor must lie in the cone itself;
    everything else accepts any point.
    """
    x = scale * rng.standard_normal(dim)
    if kind == "soc":
        u = x[1:]
        x[0] = float(np.linalg.norm(u)) + abs(x[0])
    return x


def anchored_set(rng, kind, x):
    """A random closed convex set of the given kind containing ``x``."""
    dim = x.size
    if kind == "ball":
        center = x + rng.standard_normal(dim)
        radius = float(np.linalg.norm(x - center)) * (1.0 + abs(rng.standard_normal())) + 0.1
        return Ball(center, radius)
    if kind == "halfspace":
        a = rng.standard_normal(dim)
        while not np.any(a):
            a = rng.standard_normal(dim)
        return Halfspace(a, float(a @ x) + abs(rng.standard_normal()))
    if kind == "hyperplane":
        a = rng.standard_normal(dim)
        return Hyperplane(a, float(a @ x))
    if kind == "box":
        lower = x - np.abs(rng.standard_normal(dim)) - 0.05
        upper = x + np.abs(rng.standard_normal(dim)) + 0.05
        return Box(lower, upper)
    if kind == "soc":
        return SecondOrderCone(dim)
    raise ValueError(kind)


def anchored_affine(rng, x, rows=None):
    """A random affine subspace through ``x`` (so the intersection is nonempty)."""
    dim = x.size
    if rows is None:
        rows = int(rng.integers(1, dim))
    A = rng.standard_normal((rows, dim))
    return AffineSubspace(A, A @ x)


def point_in_affine(rng, U, near, spread=2.0):
    """A random point of ``U`` near ``near``."""
    return U.project(near + spread * rng.standard_normal(U.dim))


def lift_iterate(problem, z):
    """The point of R^n, or of R^(nm), of an iterate ``z`` of ``problem``.

    ``problem.lift`` maps only the points a run tracks, which the iterates of
    CRM and MAP and of a two-set DRM run are; the product-space DRM on any
    product but one of halfspaces is such a run, on ``W`` in group order, and
    its iterates keep that order. A DRM iterate kept as span coordinates
    (``_ConeAffine``) or as ``(w, s, u)`` with ``x = x_0 + A^T w``
    (``_RowSpace``) is lifted here."""
    if problem._method is not Method.DRM or isinstance(problem, methods._TwoSets):
        return problem.lift(z)
    if isinstance(problem, methods._ConeAffine):
        a, beta, gamma, delta = z
        xp, e, w = problem._vectors
        x = a * xp
        x += beta * e
        x += gamma * w
        x[0] += delta
        return x
    w, s, _ = z
    return (problem._point(w) + s[:, None] * problem.W._halfspaces.A).ravel()


def drive_recorded(problem, y, config):
    """``_drive(problem, y, config)`` and the iterates it visited, lifted by
    ``lift_iterate``: the first iterate, then the iterate each step returned."""
    start, step = problem.start, problem.step
    iterates = []

    def recording_start(y):
        z = start(y)
        iterates.append(lift_iterate(problem, z))
        return z

    def recording_step(z, *args):
        z = step(z, *args)
        iterates.append(lift_iterate(problem, z))
        return z

    recording = SimpleNamespace(start=recording_start, measure=problem.measure,
                                step=recording_step, lift=problem.lift, dist=problem.dist)
    return _drive(recording, y, config), iterates


def recorded(solve, *args):
    """``solve(*args)``, for ``solve`` ``run`` or ``run_prod``, and the lifted
    iterates of its run (see ``drive_recorded``)."""
    runs = []

    def drive(problem, y, config):
        trace, iterates = drive_recorded(problem, y, config)
        runs.append(iterates)
        return trace

    # product_space binds the name on import
    with mock.patch.object(methods, "_drive", drive), \
            mock.patch.object(product_space, "_drive", drive):
        trace = solve(*args)
    (iterates,) = runs
    return trace, iterates


def assert_fejer_along(points, s):
    # ||z_{k+1} - s||^2 <= ||z_k - s||^2 - ||z_k - z_{k+1}||^2 for s in the intersection
    for zk, zk1 in zip(points, points[1:]):
        lhs = la.norm(zk1 - s) ** 2
        rhs = la.norm(zk - s) ** 2 - la.norm(zk - zk1) ** 2
        assert lhs <= rhs + 1e-9 * (1.0 + la.norm(zk - s) ** 2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
