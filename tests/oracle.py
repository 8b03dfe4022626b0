"""The supporting-hyperplane oracle: an independent check of the CRM step.

For ``z in U`` the CRM step ``circ{z, R_K(z), R_U R_K(z)}`` equals the
projection of ``z`` onto ``H_z ∩ U``, where ``H_z`` is the supporting
hyperplane of ``K`` at ``P_K(z)``. ``crm_oracle`` computes that projection
by one stacked linear solve, without any circumcenter.

``full_crm_coefficient`` is the CRM rule of ``methods._crm_coefficient``
with its residual scale evaluated on every call. The solver evaluates the
scale only for a residual above ``RESIDUAL_TOL`` and must decide every input
as this rule does.
"""

from __future__ import annotations

import math

import numpy as np
from numpy import linalg as la

from crmfeas.circumcenter import RESIDUAL_TOL
from crmfeas.errors import DegenerateConfiguration, FeasibilityError, NotInAffine
from crmfeas.methods import FIXED_POINT_TOL, _FixedPoint
from crmfeas.sets import AffineSubspace, ConvexSet, Hyperplane, as_point


class InconsistentIntersection(FeasibilityError):
    """A stacked linear system has no solution; the intersection may be empty."""


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
    The CRM step must agree with it for any ``z in U`` whenever ``K ∩ U`` is
    nonempty.

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


def full_crm_coefficient(uu: float, du: float, dd: float, z_norm: float) -> float:
    """``t`` of the CRM step, or the exception of a fixed point or a degenerate
    configuration, with the residual scale evaluated on every call."""
    if math.sqrt(uu) < FIXED_POINT_TOL * (1.0 + z_norm):
        raise _FixedPoint("R_K(z) - z is within rounding of z")
    if du <= 0.0:
        raise DegenerateConfiguration("R_K(z) - z has no component along U")
    t = uu / (2.0 * du)
    vv = 4.0 * (dd - du) + uu  # ||2d - u||^2
    residual = max(abs(2.0 * t * du - uu), abs(2.0 * t * (2.0 * dd - du) - vv))
    scale = 1.0 + max(math.sqrt(uu), math.sqrt(max(vv, 0.0)),
                      2.0 * math.sqrt(max(dd - 2.0 * du + uu, 0.0)))
    if residual > RESIDUAL_TOL * scale:
        raise DegenerateConfiguration(
            f"no equidistant point in the affine hull (residual {residual:.3e})"
        )
    return t
