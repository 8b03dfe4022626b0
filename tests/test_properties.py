"""Fejér monotonicity and CRM <= MAP on hypothesis-drawn problems over the catalog.

The acceptance suite checks both along the two benchmark grids; here the
sets are drawn from every kind of the catalog (ball, box, halfspace,
hyperplane, second-order cone, affine subspace), alone against an affine
subspace and as factors of product-space problems, all through one known
common point.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy import linalg as la

from crmfeas.methods import Method, SolverConfig, crm_step, run
from crmfeas.product_space import ProductSet, lift, run_prod
from conftest import (anchored_affine, anchored_point, anchored_set, assert_fejer_along,
                      point_in_affine, recorded)

KINDS = ("ball", "box", "halfspace", "hyperplane", "soc", "affine")
SEEDS = st.integers(0, 2**32 - 1)


def _catalog_set(rng, kind, anchor):
    if kind == "affine":
        return anchored_affine(rng, anchor)
    return anchored_set(rng, kind, anchor)


def _assert_not_farther(crm, map_, z, s):
    assert la.norm(crm - s) <= la.norm(map_ - s) + 1e-9 * (1.0 + la.norm(z - s))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.integers(2, 8), kind=st.sampled_from(KINDS))
# draws whose ||u|| / ||d|| of 10^3-10^4 amplified the rounding of a direction
# taken as P_U(z + u) - z
@example(seed=41356185, dim=4, kind="affine")
@example(seed=1623, dim=2, kind="hyperplane")
def test_two_set_crm_is_fejer_and_never_farther_than_map(seed, dim, kind):
    rng = np.random.default_rng(seed)
    anchor = anchored_point(rng, dim, "soc")  # a point of every kind
    K = _catalog_set(rng, kind, anchor)
    U = anchored_affine(rng, anchor)
    z0 = point_in_affine(rng, U, anchor, spread=3.0)
    _assert_not_farther(crm_step(K, U, z0), U.project(K.project(z0)), z0, anchor)
    _, iterates = recorded(run, K, U, z0, SolverConfig(method=Method.CRM, max_iter=2000))
    assert_fejer_along(iterates, anchor)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.integers(2, 8),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
def test_product_crm_is_fejer_and_never_farther_than_map(seed, dim, kinds):
    rng = np.random.default_rng(seed)
    anchor = anchored_point(rng, dim, "soc")
    W = ProductSet([_catalog_set(rng, kind, anchor) for kind in kinds])
    s = lift(anchor, W.m)
    z0 = lift(anchor + 3.0 * rng.standard_normal(dim), W.m)
    one = {method: recorded(run_prod, W, z0, SolverConfig(method=method, max_iter=1))[1]
           for method in (Method.CRM, Method.MAP)}
    _assert_not_farther(one[Method.CRM][-1], one[Method.MAP][-1], z0, s)
    _, iterates = recorded(run_prod, W, z0, SolverConfig(method=Method.CRM, max_iter=2000))
    assert_fejer_along(iterates, s)
