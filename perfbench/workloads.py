"""The benchmark's three workloads and the checks on their answers.

Each workload is a fixed problem set; ``--seed`` draws the order in which its
problems, and the starts within each problem, are solved. The problem sets
stay fixed because their per-method totals are what the bounds gate: drawing
the problems themselves from the seed spreads those totals by 16-21 % across
seeds on ``cone`` (see README.md), far more than any bound worth having.

Everything the program runs is looked up as a module attribute at call time,
so that a :class:`tracing.Tracer` installed later sees every call.
"""

from __future__ import annotations

import random
import sys

import numpy as np
from numpy import linalg as la

from checks import (
    affine_residual,
    block_mean,
    cone_residual,
    factor_residual,
    soc_shadow,
)

N = 200  # ambient dimension of cone and poly (the paper's experiments)
MIXED_N = 100
TOL = 1e-6
MAX_ITER = 100_000
CONE_SEED = 2024  # base seed of the reference cone grid
POLY_SEED = 137  # base seed of the reference polyhedral stream
MIXED_SEED = 7
METHODS = ("CRM", "DRM", "MAP")
WORKLOADS = ("cone", "poly", "mixed")

# (instance index in the workload's seed stream, number of starts)
CONE_UNITS = {False: [(i, 10) for i in range(100)], True: [(0, 2), (1, 2), (2, 2)]}
# the reference instance (m = 57) with the grid's 20 starts, plus the stream's
# instances 2 and 7 (m = 171), whose CRM-prod steps take circumcenters in R^34200
POLY_UNITS = {False: [(0, 20), (2, 1), (7, 1)], True: [(0, 3)]}
MIXED_UNITS = {False: [(i, 3) for i in range(8)], True: [(0, 1), (1, 1)]}
MIXED_KINDS = ("ball", "box", "halfspace", "soc")
# (instance, start, method) solves that fail the feasibility check on every
# run because of a known program fault; they count as failed, not as wrong.
# Mixed instance 7, start 2: the CRM-prod iterates drift up to 4.8e-4 off the
# diagonal, so run_prod stops on a raw gap of 5.8e-7 while the block mean is
# 2.2e-6 outside a halfspace.
KNOWN_FAULTS = {"cone": set(), "poly": set(), "mixed": {(7, 2, "CRM")}}


def _module(name):
    return sys.modules[f"crmfeas.{name}"]


def configs() -> dict:
    methods = _module("methods")
    return {name: methods.SolverConfig(tol=TOL, max_iter=MAX_ITER, method=methods.Method(name))
            for name in METHODS}


def _starts(instance, base_seed, index, count):
    inst = _module("instances")
    return [inst.gen_start(instance, inst.derive_seed(base_seed, 2, index, j), min_gap=TOL).projected
            for j in range(count)]


class ConeProblem:
    """``K ∩ U`` with ``K`` the second-order cone: solved by ``methods.run``."""

    def __init__(self, index, start_count):
        inst = _module("instances")
        self.index = index
        self.instance = inst.gen_soc_instance(N, inst.derive_seed(CONE_SEED, 1, index))
        self.starts = _starts(self.instance, CONE_SEED, index, start_count)
        self.A = np.array(self.instance.affine.A)
        self.b = np.array(self.instance.affine.b)

    def solve(self, config, z0):
        return _module("methods").run(self.instance.sets[0], self.instance.affine, z0, config)

    def residual(self, method, x) -> float:
        """Feasibility residual of the answer carried by final point ``x``:
        the iterate for CRM and MAP, the shadow ``P_K(x)`` for DRM."""
        if method == "DRM":
            x = soc_shadow(x)
        return max(affine_residual(self.A, self.b, x), cone_residual(x))

    def one_step(self, z):
        """(CRM, MAP, DRM) steps from ``z`` and the certificate they are compared at."""
        K, U = self.instance.sets[0], self.instance.affine
        crm = _module("methods").crm_step(K, U, z)
        map_ = U.project(K.project(z))
        drm = 0.5 * (z + U.reflect(K.reflect(z)))
        return crm, map_, drm, self.instance.certificate


class ProductProblem:
    """An m-set intersection solved by ``product_space.run_prod``."""

    def __init__(self, index, instance, starts, factors):
        self.index = index
        self.instance = instance
        self.starts = starts
        self.factors = factors  # (kind, params) per set, for the residuals
        self.W = _module("product_space").ProductSet(instance.sets)

    def solve(self, config, z0):
        return _module("product_space").run_prod(self.W, z0, config)

    def residual(self, method, x) -> float:
        """Worst factor residual at the block mean of the final diagonal point."""
        mean = block_mean(x, self.instance.m)
        return max(factor_residual(kind, params, mean) for kind, params in self.factors)

    def one_step(self, z):
        ps, W = _module("product_space"), self.W
        D = ps.DiagonalSubspace(W.block_dim, W.m)
        crm = ps.crm_prod_step(W, z)
        map_ = D.project(W.project(z))
        drm = 0.5 * (z + D.reflect(W.reflect(z)))
        return crm, map_, drm, np.tile(self.instance.certificate, W.m)


def poly_problem(index, start_count) -> ProductProblem:
    inst = _module("instances")
    instance = inst.gen_polyhedral_instance(N, inst.derive_seed(POLY_SEED, 1, index))
    factors = [("halfspace", (np.array(h.a), float(h.b))) for h in instance.sets]
    return ProductProblem(index, instance, _starts(instance, POLY_SEED, index, start_count), factors)


def mixed_factors(rng, x, m):
    """``m`` random (kind, params) factors, each containing ``x`` with a margin."""
    n = x.size
    factors = []
    for _ in range(m):
        kind = MIXED_KINDS[int(rng.integers(len(MIXED_KINDS)))]
        if kind == "ball":
            center = x + rng.standard_normal(n)
            radius = float(la.norm(x - center)) * (1.0 + 0.1 * abs(rng.standard_normal())) + 0.01
            factors.append((kind, (center, radius)))
        elif kind == "box":
            factors.append((kind, (x - np.abs(rng.standard_normal(n)) - 0.01,
                                   x + np.abs(rng.standard_normal(n)) + 0.01)))
        elif kind == "halfspace":
            a = rng.standard_normal(n)
            factors.append((kind, (a, float(a @ x) + 0.1 * abs(rng.standard_normal()))))
        else:
            factors.append((kind, None))
    return factors


def mixed_problem(index, start_count) -> ProductProblem:
    """Balls, boxes, halfspaces and cones around one point inside the cone."""
    sets, inst = _module("sets"), _module("instances")
    rng = np.random.default_rng(inst.derive_seed(MIXED_SEED, 1, index))
    u = 0.1 * rng.standard_normal(MIXED_N - 1)
    certificate = np.concatenate([[float(la.norm(u)) + 0.05 + 0.1 * abs(rng.standard_normal())], u])
    factors = mixed_factors(rng, certificate, int(rng.integers(16, 41)))
    make = {"ball": sets.Ball, "box": sets.Box, "halfspace": sets.Halfspace}
    instance = inst.ProblemInstance(
        kind=inst.Kind.POLYHEDRAL,
        sets=[sets.SecondOrderCone(MIXED_N) if kind == "soc" else make[kind](*params)
              for kind, params in factors],
        affine=None, n=MIXED_N, m=len(factors), seed=index, certificate=certificate)
    return ProductProblem(index, instance, _starts(instance, MIXED_SEED, index, start_count), factors)


def build(workload: str, small: bool = False) -> list:
    """Generate every instance, set and start of ``workload``."""
    if workload == "cone":
        return [ConeProblem(i, k) for i, k in CONE_UNITS[small]]
    if workload == "poly":
        return [poly_problem(i, k) for i, k in POLY_UNITS[small]]
    if workload == "mixed":
        return [mixed_problem(i, k) for i, k in MIXED_UNITS[small]]
    raise ValueError(f"unknown workload {workload!r}")


def schedule(problems, seed: int) -> list:
    """(problem, start index) pairs: problems in a seeded order, then their starts."""
    rng = random.Random(seed)
    order = []
    for problem in rng.sample(problems, len(problems)):
        order.extend((problem, j) for j in rng.sample(range(len(problem.starts)),
                                                      len(problem.starts)))
    return order
