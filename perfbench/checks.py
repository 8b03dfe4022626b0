"""Answer checks computed apart from the program.

Feasibility is judged with residual formulas written here, never with the
package's projectors. Each residual is at most the distance to its set (the
cone residual at most sqrt(2) times it) and is zero on the set. A solve
stopped at tolerance ``tol`` returns a point within ``tol`` of every set, so
``FEAS_TOL`` leaves room for the sqrt(2) of the cone residual and little more.
"""

from __future__ import annotations

import numpy as np
from numpy import linalg as la

FEAS_TOL = 2e-6  # twice the solver tolerance of 1e-6
STEP_SLACK = 1e-9  # relative slack of the one-step distance comparison


def cone_residual(x) -> float:
    """``max(0, ||u|| - t)`` for ``x = (t, u)``; at most sqrt(2) times the distance."""
    return max(0.0, float(la.norm(x[1:])) - float(x[0]))


def affine_residual(A, b, x) -> float:
    """``||A x - b|| / ||A||_F``, never more than the distance to ``{A x = b}``
    because ``||A x - b|| <= ||A||_2 dist <= ||A||_F dist``."""
    return float(la.norm(A @ x - b)) / float(la.norm(A))


def soc_shadow(z) -> np.ndarray:
    """Nearest point of the second-order cone, by the closed form."""
    t, u = float(z[0]), z[1:]
    nu = float(la.norm(u))
    if nu <= t:
        return z.copy()
    if nu <= -t:
        return np.zeros_like(z)
    s = 0.5 * (t + nu)
    return np.concatenate([[s], (s / nu) * u])


def factor_residual(kind: str, params, x) -> float:
    """Residual of ``x`` for one product factor, given as plain arrays."""
    if kind == "ball":
        center, radius = params
        return max(0.0, float(la.norm(x - center)) - radius)
    if kind == "box":
        lower, upper = params
        return max(0.0, float(np.max(lower - x)), float(np.max(x - upper)))
    if kind == "halfspace":
        a, b = params
        return max(0.0, float(a @ x) - b) / float(la.norm(a))
    if kind == "soc":
        return cone_residual(x)
    raise ValueError(f"unknown factor kind {kind!r}")


def block_mean(z, m: int) -> np.ndarray:
    return z.reshape(m, -1).mean(axis=0)


def crm_not_farther(crm, map_, drm, z, s) -> bool:
    """The CRM step is no farther from ``s`` than the MAP and DRM steps."""
    slack = STEP_SLACK * (1.0 + float(la.norm(z - s)))
    d = float(la.norm(crm - s))
    return d <= float(la.norm(map_ - s)) + slack and d <= float(la.norm(drm - s)) + slack
