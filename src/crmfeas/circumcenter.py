"""Circumcenter of a finite point set.

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

from .errors import DegenerateConfiguration, DimensionMismatch
from .sets import as_point

__all__ = ["CircumcenterResult", "circumcenter"]

# Residual bound, relative to the largest squared pairwise distance of the
# points, above which the configuration has no circumcenter.
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
    # the equations are in squared units, so their residual is measured against
    # the largest squared pairwise distance, at every scale of the points
    scale = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            r = pts[i] - pts[j]
            scale = max(scale, float(r.dot(r)))

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
