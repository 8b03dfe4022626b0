"""Product-space reformulation of an m-set intersection problem.

A point common to sets ``X_1, ..., X_m`` in R^n is sought as a point of
``W ∩ D`` in R^(nm), where ``W = X_1 x ... x X_m`` and ``D`` is the diagonal
subspace ``{(x, ..., x)}``. ``D`` is an affine subspace, so the CRM step
and the driver of :mod:`crmfeas.methods` apply with ``K := W`` and
``U := D``; this module supplies the two sets, the lift/restrict maps and
``run_prod``.

On the diagonal the product-space MAP and CRM are Cimmino's method and
Pierra's extrapolated parallel projection method in R^n, and ``run_prod``
runs them in that form (see ``_Diagonal``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy import linalg as la

# not called here; perfbench/tracing.py wraps the name in every module binding it
from .circumcenter import circumcenter  # noqa: F401
from .errors import DimensionMismatch, NotDiagonal
from .methods import (IterationTrace, Method, SolverConfig, _crm_coefficient, _drive,
                      _TwoSets, crm_step)
from .sets import ConvexSet, _check_finite, _row_projector, as_point

__all__ = [
    "ProductSet",
    "DiagonalSubspace",
    "lift",
    "restrict",
    "crm_prod_step",
    "run_prod",
]

DIAG_TOL = 1e-8


class ProductSet(ConvexSet):
    """Cartesian product ``X_1 x ... x X_m`` of same-dimension catalog sets.

    Projection is blockwise and independent per factor. The factors are
    grouped by class at construction, and each group is projected in one
    pass (see :func:`crmfeas.sets._row_projector`): halfspaces as the rows of
    ``A x <= b``, balls and boxes through their stacked parameters,
    second-order cones row by row, and other sets one at a time. The result
    does not depend on the order of the factors beyond rounding.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        n = self.factors[0].dim
        for f in self.factors:
            if f.dim != n:
                raise DimensionMismatch("all factors must share one dimension")
        self.block_dim = n
        self.m = len(self.factors)
        self.dim = n * self.m

        groups: dict[type, list[int]] = {}
        for i, f in enumerate(self.factors):
            groups.setdefault(type(f), []).append(i)
        self._groups = [(np.array(idx), _row_projector([self.factors[i] for i in idx]))
                        for idx in groups.values()]

    def _project(self, z):
        X = z.reshape(self.m, self.block_dim)
        if len(self._groups) == 1:  # every block in one pass, no gather or scatter
            return self._groups[0][1].project(X).ravel()
        out = np.empty_like(X)
        for idx, rows in self._groups:
            out[idx] = rows.project(X[idx])
        return out.ravel()

    def _projection_sums(self, x):
        """``(sum P_{X_i}(x), sum ||P_{X_i}(x) - x||^2)`` over the factors, for
        ``x in R^n``, added up group by group."""
        total, sq = self._groups[0][1].sums(x)
        for _, rows in self._groups[1:]:
            t, s = rows.sums(x)
            total = total + t
            sq += s
        return total, sq

    def __repr__(self):
        return f"ProductSet(m={self.m}, block_dim={self.block_dim})"


class DiagonalSubspace(ConvexSet):
    """Diagonal subspace ``D = {(x, ..., x) in R^(nm)}`` for m blocks of size n.

    A linear subspace (contains the origin); its projector replaces every
    block by the blockwise mean.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise ValueError("block dimension and count must be positive")
        self.n = int(n)
        self.m = int(m)
        self.dim = self.n * self.m

    def _project(self, z):
        out = np.empty((self.m, self.n))
        out[:] = z.reshape(self.m, self.n).mean(axis=0)
        return out.ravel()

    def __repr__(self):
        return f"DiagonalSubspace(n={self.n}, m={self.m})"


def lift(x, m: int) -> np.ndarray:
    """Concatenate ``m`` copies of ``x``; the result lies in ``D`` exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.tile(as_point(x), m)


def restrict(z, m: int, tol: float | None = None) -> np.ndarray:
    """Blockwise average of a near-diagonal point (the inverse of ``lift``).

    Raises ``NotDiagonal`` when some block deviates from the average by more
    than ``tol`` (default ``1e-8 * (1 + ||z||)``).
    """
    z = as_point(z)
    if m < 1 or z.size % m:
        raise DimensionMismatch(f"dimension {z.size} is not divisible into {m} blocks")
    X = z.reshape(m, z.size // m)
    mean = X.mean(axis=0)
    if tol is None:
        tol = DIAG_TOL * (1.0 + float(la.norm(X)))
    dev = float(np.max(la.norm(X - mean, axis=1))) if m > 1 else 0.0
    if dev > tol:
        raise NotDiagonal(f"blocks deviate from their mean by {dev:.3e}")
    return mean


def crm_prod_step(W: ProductSet, z) -> np.ndarray:
    """Circumcenter step ``P_D(circ{z, R_W(z), R_D R_W(z)})`` for ``z in D``.

    This is :func:`crmfeas.methods.crm_step` with ``K := W`` and ``U := D``;
    it raises ``NotInAffine`` unless ``z`` lies in ``D`` (within ``1e-8``
    relative).
    """
    return crm_step(W, DiagonalSubspace(W.block_dim, W.m), z)


class _Diagonal:
    """``W ∩ D`` for :func:`crmfeas.methods._drive`, on diagonal iterates
    ``z = lift(x)`` kept as ``x in R^n``.

    ``P_W(z)`` has blocks ``P_{X_i}(x)``; let ``p`` be their sum and
    ``r_i = P_{X_i}(x) - x``. The gap is ``(sum ||r_i||^2)^(1/2)``, and MAP's
    ``P_D(P_W(z))`` is ``lift(p / m)``: Cimmino's method. CRM's
    ``u = 2 (P_W(z) - z)`` and ``d = P_D(z + u) - z = lift(2 (p / m - x))``
    have ``<u, u> = 4 sum ||r_i||^2`` and ``<d, u> = <d, d> = m ||2 (p / m - x)||^2``,
    from which the CRM rule gives ``x + 2 t (p / m - x)``: Pierra's
    extrapolated parallel projection method (Pierra 1984; Combettes 1994).
    """

    def __init__(self, W: ProductSet, method: Method):
        self.W = W
        self.step = self._map_step if method is Method.MAP else self._crm_step

    def measure(self, x):
        _check_finite(x)  # as P_W(lift(x)) checks its argument in R^(nm)
        total, sq = self.W._projection_sums(x)
        return x, math.sqrt(sq), (total, sq)

    def _map_step(self, x, y, g, data):
        return data[0] / self.W.m

    def _crm_step(self, x, y, g, data):
        total, sq = data
        m = self.W.m
        d = 2.0 * (total / m - x)
        dd = m * float(d.dot(d))
        x = x + _crm_coefficient(4.0 * sq, dd, dd, math.sqrt(m) * math.sqrt(x.dot(x))) * d
        _check_finite(x)  # as P_D(z + t d) checks its argument in R^(nm)
        return x

    def lift(self, x):
        return np.tile(x, self.W.m)


def run_prod(W: ProductSet, z0, config: SolverConfig) -> IterationTrace:
    """Drive a product-space method from ``z0`` (projected onto ``D`` first).

    The steps are those of :func:`crmfeas.methods.run` with ``K := W`` and
    ``U := D``. CRM and MAP iterates stay in ``D``, so they run in R^n on the
    block mean ``x`` (Pierra's EPPM and Cimmino's method, see ``_Diagonal``),
    equal to the R^(nm) iteration up to rounding, and stop on
    ``||z - P_W(z)|| < tol``. DRM iterates leave ``D`` and run in R^(nm):
    ``z`` of ``(z + R_W(R_D(z))) / 2``, whose reflections ``R_D(z)`` are the
    textbook DRM iterates, stopping on ``||P_D(z) - P_W(R_D(z))|| < tol``,
    which equals its fixed-point residual ``||z^(k+1) - z^k||``.
    ``final_point`` and the recorded iterates are points of R^(nm);
    ``final_point`` is the diagonal point where the last gap was measured:
    ``lift(x)`` for CRM and MAP, the shadow ``P_D(z)`` for DRM.
    """
    z0 = as_point(z0, W.dim)
    if config.method is Method.DRM:
        D = DiagonalSubspace(W.block_dim, W.m)
        return _drive(_TwoSets(W, D, Method.DRM), D.project(z0), config)
    return _drive(_Diagonal(W, config.method), z0.reshape(W.m, W.block_dim).mean(axis=0), config)
