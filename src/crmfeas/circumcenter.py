"""Circumcenter of a finite point set and its supporting-hyperplane oracle.

The circumcenter of points ``p_0, ..., p_q`` is the unique point of their
affine hull equidistant to all of them, when such a point exists. Writing
``v_i = p_i - p_0`` and ``c = p_0 + w``, equidistance reduces to the linear
system ``2 v_i^T w = ||v_i||^2``, solved here by one minimum-norm least-squares
solve, whose solution lies in the span of the ``v_i``. The CRM step of
:mod:`crmfeas.methods` uses a closed form for its three points; this routine
is the general definition and the reference that form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import linalg as la

from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InconsistentIntersection,
    NotInAffine,
)
from .sets import AffineSubspace, ConvexSet, Hyperplane, as_point

__all__ = ["CircumcenterResult", "circumcenter", "supporting_hyperplane", "crm_oracle"]

# Residual bound (times scale) above which the configuration has no circumcenter.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class CircumcenterResult:
    """Circumcenter of a point list.

    Attributes
    ----------
    center : ndarray
        The equidistant point, inside the affine hull of the inputs.
    residual : float
        Max deviation among the squared-distance equations
        ``| ||p_i - c||^2 - ||p_0 - c||^2 |``.
    basis_rank : int
        Dimension of the affine hull actually used for the solve.
    """

    center: np.ndarray
    residual: float
    basis_rank: int


def circumcenter(points) -> CircumcenterResult:
    """Circumcenter of an ordered point list (length >= 1).

    Degenerate lists are handled per definition: one point is its own
    circumcenter, two points give their midpoint. Coincident points collapse
    gracefully, while configurations admitting no equidistant point in their
    affine hull (e.g. three distinct collinear points) raise
    ``DegenerateConfiguration``.

    Parameters
    ----------
    points : sequence of array_like
        The points, all of one dimension.

    Returns
    -------
    CircumcenterResult
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = pts[0].size
    for p in pts[1:]:
        if p.size != dim:
            raise DimensionMismatch("points have mixed dimensions")

    p0 = pts[0]
    scale = 1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            scale = max(scale, 1.0 + float(la.norm(pts[i] - pts[j])))

    if len(pts) == 1:
        return CircumcenterResult(center=p0.copy(), residual=0.0, basis_rank=0)

    V = np.array([p - p0 for p in pts[1:]])  # q x n
    sq = np.einsum("ij,ij->i", V, V)
    w, _, rank, _ = la.lstsq(2.0 * V, sq, rcond=None)

    # every equation must hold, including those of dependent directions
    residual = float(np.max(np.abs(V @ (2.0 * w) - sq)))
    if residual > RESIDUAL_TOL * scale:
        raise DegenerateConfiguration(
            f"no equidistant point in the affine hull (residual {residual:.3e})"
        )
    return CircumcenterResult(center=p0 + w, residual=residual, basis_rank=int(rank))


def supporting_hyperplane(K: ConvexSet, z) -> Hyperplane | None:
    """Hyperplane through ``P_K(z)`` with normal ``z - P_K(z)``, or None.

    Returns None when ``z`` lies in ``K`` (within ``1e-12 * (1 + ||z||)``),
    in which case the supporting set degenerates to ``K`` itself.
    """
    z = as_point(z, K.dim)
    p = K.project(z)
    a = z - p
    if float(la.norm(a)) <= 1e-12 * (1.0 + float(la.norm(z))):
        return None
    return Hyperplane(a, float(a @ p))


def crm_oracle(K: ConvexSet, U: AffineSubspace, z) -> np.ndarray:
    """Projection of ``z in U`` onto ``H_z ∩ U``, the circumcenter-free route.

    ``H_z`` is the supporting hyperplane of ``K`` at ``z`` (see
    ``supporting_hyperplane``); its equation is stacked onto the equations of
    ``U`` and ``z`` is projected onto the resulting affine set by a
    minimum-norm least-squares solve. For ``z in K`` the result is ``z``.

    This is an independent check of the circumcenter-based step: the two must
    agree for any ``z in U`` whenever ``K ∩ U`` is nonempty.

    Raises
    ------
    NotInAffine
        If ``z`` is farther than ``1e-10 * (1 + ||z||)`` from ``U``.
    InconsistentIntersection
        If the stacked system is infeasible, signalling that ``K ∩ U`` may be
        empty along this geometry.
    """
    z = as_point(z, U.dim)
    if float(la.norm(z - U.project(z))) > 1e-10 * (1.0 + float(la.norm(z))):
        raise NotInAffine("oracle requires z in U")
    H = supporting_hyperplane(K, z)
    if H is None:
        return z

    M = np.vstack([U.A, H.a])
    rhs = np.concatenate([U.b, [H.b]]) - M @ z
    delta, *_ = la.lstsq(M, rhs, rcond=None)
    if float(la.norm(M @ delta - rhs)) > 1e-8 * (1.0 + float(la.norm(rhs))):
        raise InconsistentIntersection("stacked hyperplane/affine system is infeasible")
    return z + delta
