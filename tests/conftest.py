"""Shared helpers: anchored random sets with a known common point, and the
iterates of a run, recorded on the test side of the driver."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy import linalg as la

from crmfeas import methods, product_space
from crmfeas.methods import _drive
from crmfeas.sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
)

ANCHORED_KINDS = ("ball", "halfspace", "box", "soc")


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


def drive_recorded(problem, z, config):
    """``_drive(problem, z, config)`` and the iterates it visited, lifted: the
    start ``z``, then the iterate each step returned."""
    step, lift = problem.step, problem.lift
    iterates = [lift(z)]

    def recording_step(z, *args):
        z = step(z, *args)
        iterates.append(lift(z))
        return z

    recording = SimpleNamespace(measure=problem.measure, step=recording_step, lift=lift,
                                dist=problem.dist)
    return _drive(recording, z, config), iterates


def recorded(solve, *args):
    """``solve(*args)``, for ``solve`` ``run`` or ``run_prod``, and the lifted
    iterates of its run (see ``drive_recorded``)."""
    runs = []

    def drive(problem, z, config):
        trace, iterates = drive_recorded(problem, z, config)
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
