"""The CRM step and the iteration driver for the two-set problem K ∩ U.

``K`` is any closed convex set from the catalog and ``U`` an affine subspace
whose projector ``P_U(x) = x_p + L x`` gives its linear part ``L`` as
``_linear``: an ``AffineSubspace``, or the diagonal subspace of the
product-space reformulation. Three methods are provided:

* CRM: ``z -> circumcenter{z, R_K(z), R_U R_K(z)}``, for ``z in U``;
* MAP: ``z -> P_U(P_K(z))``;
* DRM: ``z -> (z + R_U(R_K(z))) / 2``, run in its reflected form (see ``_drive``).

For ``z in U``, ``R_U R_K(z)`` mirrors ``R_K(z)`` through ``U``, so the CRM
circumcenter lies on the line from ``z`` through ``P_U(R_K(z))`` and the step
is computed in closed form on that line. One loop drives all three methods
for both ``run`` and the product-space ``run_prod``.

On a second-order cone ``K`` and an ``AffineSubspace`` ``U``, ``P_K`` only
rescales a point and rewrites its entry 0, so the CRM and MAP iterates from
the projected start ``z_0`` never leave the plane
``x_p + span{z_0 - x_p, L e_0}``, and the DRM iterates never leave
``span{x_p, z_0 - x_p, L e_0, e_0}``; ``run`` keeps them as two or four
coordinates, and an iteration costs scalar arithmetic (see ``_ConeAffine``).
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy import linalg as la

from .circumcenter import RESIDUAL_TOL
# not called here; perfbench/tracing.py wraps the name in every module binding it
from .circumcenter import circumcenter  # noqa: F401
from .errors import DegenerateConfiguration, NotInAffine
from .sets import AffineSubspace, ConvexSet, SecondOrderCone, _check_finite, as_point

__all__ = [
    "Method",
    "Status",
    "SolverConfig",
    "IterationTrace",
    "crm_step",
    "run",
]

# Below this (relative) distance between z and R_K(z) the CRM step is
# near-singular and z is already a fixed point for practical purposes.
FIXED_POINT_TOL = 1e-14
# Allowed drift of an iterate from U before crm_step refuses to proceed, and
# of a DRM shadow before its distance to U counts (see _TwoSets._dist).
AFFINE_TOL = 1e-8
# _ConeAffine runs only while the squared norms of its three vectors add up to
# less than this, so that no sum of products in its arithmetic overflows
# where the same run in R^n would not.
PLANE_HEADROOM = 2.0 ** -20 * sys.float_info.max
# A MAP iterate that stops moving certifies an empty intersection only when
# its gap exceeds this multiple of the iterate's largest entry (see _drive).
STALL_FLOOR = 2.0 ** -40
_SQRT_HALF = math.sqrt(0.5)


def _positive_int(value, name: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer of at
    least 1. A numpy integer is one, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class Method(str, enum.Enum):
    CRM = "CRM"
    MAP = "MAP"
    DRM = "DRM"


class Status(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DEGENERATE = "degenerate"
    # a vector went non-finite, or max_iter was reached on a non-finite gap
    NONFINITE = "nonfinite"


@dataclass(frozen=True)
class SolverConfig:
    """Driver configuration.

    ``tol`` is the gap tolerance of the stopping rule (default ``1e-6``) and
    ``max_iter``, an integer of at least 1, the most steps a run takes.
    """

    tol: float = 1e-6
    max_iter: int = 100_000
    method: Method = Method.CRM

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        _positive_int(self.max_iter, "max_iter")
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be one of {[m.value for m in Method]}")


@dataclass
class IterationTrace:
    """Record of one solver run.

    ``gaps`` holds one value per visited iterate (length ``iterations + 1``).
    ``final_point`` is the point where the last gap was measured: the iterate
    for CRM and MAP, the shadow ``P_U(z)`` for DRM. Product-space runs report
    points of R^(nm) (see :func:`crmfeas.product_space.run_prod`).
    """

    gaps: list[float]
    iterations: int
    status: Status
    final_point: np.ndarray


def _check_in_affine(U: ConvexSet, z: np.ndarray) -> None:
    if float(la.norm(z - U.project(z))) > AFFINE_TOL * (1.0 + float(la.norm(z))):
        raise NotInAffine("iterate is not in the affine set U")


class _FixedPoint(DegenerateConfiguration):
    """``z`` is a fixed point of the CRM step (see ``_crm_coefficient``)."""


def _crm_coefficient(uu: float, du: float, dd: float, z_norm: float) -> float:
    """The CRM rule: ``t`` such that ``z + t d`` is the circumcenter of ``z``,
    ``z + u`` and ``z + 2d - u``, from ``uu = <u, u>``, ``du = <d, u>``,
    ``dd = <d, d>`` and ``z_norm = ||z||``.

    Here ``u = R_K(z) - z`` and ``d = P_U(R_K(z)) - z`` for ``z in U``, and
    ``2 t <d, u> = ||u||^2``. ``_FixedPoint`` is raised when ``z`` is a fixed
    point for practical purposes: ``crm_step`` then returns ``z``, and the
    driver, which steps only on a gap of at least tol, ends the run
    ``DEGENERATE``, as ``z`` would repeat forever. The configuration is
    degenerate when no equidistant point exists: ``<d, u> <= 0``, or the
    equidistance equations ``2 <v_i, t d> = ||v_i||^2`` of ``v_1 = u`` and
    ``v_2 = 2d - u`` miss by more than ``RESIDUAL_TOL`` times one plus the
    largest pairwise distance of the three points. That scale is a length
    with a floor of 1, unlike the largest squared distance that
    :func:`crmfeas.circumcenter.circumcenter` measures the same squared-unit
    residuals against. The floor is what ends CRM on an empty ball-and-line
    or ball-and-plane problem ``DEGENERATE``; a certificate of emptiness
    (ROADMAP item 3) should take its place. The scale is evaluated only for
    a residual above ``RESIDUAL_TOL``: being at least 1, or NaN, which fails
    the comparison either way, it cannot reject a smaller one.
    """
    u_norm = math.sqrt(uu)
    if u_norm < FIXED_POINT_TOL * (1.0 + z_norm):
        raise _FixedPoint("R_K(z) - z is within rounding of z")
    if du <= 0.0:
        raise DegenerateConfiguration("R_K(z) - z has no component along U")
    t = uu / (2.0 * du)
    vv = 4.0 * (dd - du) + uu  # ||2d - u||^2
    residual = max(abs(2.0 * t * du - uu), abs(2.0 * t * (2.0 * dd - du) - vv))
    if residual > RESIDUAL_TOL and residual > RESIDUAL_TOL * (1.0 + max(
            u_norm, math.sqrt(max(vv, 0.0)), 2.0 * math.sqrt(max(dd - 2.0 * du + uu, 0.0)))):
        raise DegenerateConfiguration(
            f"no equidistant point in the affine hull (residual {residual:.3e})"
        )
    return t


def _crm_from_projection(z: np.ndarray, pk: np.ndarray, U: ConvexSet) -> np.ndarray:
    """CRM update given ``pk = P_K(z)``; assumes z in U (see ``_crm_coefficient``).

    For ``z in U`` the direction ``d = P_U(z + u) - z``, ``u = 2 (pk - z)``,
    is ``L u``, with ``L`` the linear part of ``P_U``. Taken as ``L u``, it
    is not the difference of two points of size ``||z||``, whose rounding
    the step would amplify by ``||u|| / ||d||``. The circumcenter lies in
    ``U`` in exact arithmetic; projecting it back keeps rounding from
    carrying later iterates off ``U``. Raises ``ValueError`` when that point
    has a non-finite entry.
    """
    u = 2.0 * (pk - z)
    d = U._linear(u)
    t = _crm_coefficient(float(u.dot(u)), float(d.dot(u)), float(d.dot(d)),
                         math.sqrt(z.dot(z)))
    return U._project(_check_finite(z + t * d))


def crm_step(K: ConvexSet, U: ConvexSet, z) -> np.ndarray:
    """One circumcentered-reflection step ``circ{z, R_K(z), R_U R_K(z)}``.

    Computed in closed form (see ``_crm_coefficient``). Requires
    ``z in U`` (within ``1e-8`` relative); the result again lies in ``U``,
    and ``z`` is a fixed point exactly when ``z in K ∩ U``.
    """
    z = as_point(z, U.dim)
    _check_in_affine(U, z)
    try:
        return _crm_from_projection(z, K.project(z), U)
    except _FixedPoint:
        return z


class _ByMethod:
    """Binds a problem's ``measure``, ``dist`` and ``step`` for its method
    ``_method`` on access: ``_measure_shadow``, ``_dist`` and ``_drm_step`` for
    DRM; ``_measure_iterate``, no ``dist``, and ``_crm_step`` or ``_map_step``
    otherwise. Each member is chosen by comparing ``_method``, once per run.
    A bound method stored on the instance would make a reference cycle, and
    every run's problem would wait for the cyclic GC. ``start`` returns the
    tracked start itself, for a problem whose iterates are its tracked
    points."""

    def start(self, y):
        return y

    @property
    def measure(self):
        return self._measure_shadow if self._method is Method.DRM else self._measure_iterate

    @property
    def dist(self):
        return self._dist if self._method is Method.DRM else None

    @property
    def step(self):
        method = self._method
        if method is Method.CRM:
            return self._crm_step
        return self._map_step if method is Method.MAP else self._drm_step


class _TwoSets(_ByMethod):
    """``K ∩ U`` for :func:`_drive`, for one method, on points of R^n.

    ``data`` is a projection onto ``K``. The problem calls the sets'
    ``_project`` on vectors known to be finite, and checks for non-finite
    entries only where the public ``project`` would have rejected one that
    is not. It runs the product-space DRM too (see ``product_space.run_prod``).
    """

    def __init__(self, K: ConvexSet, U: ConvexSet, method: Method):
        self.K = K
        self.U = U
        self._method = method

    def _measure_iterate(self, z):
        pk = self.K._project(z)
        r = z - pk
        g = math.sqrt(r.dot(r))
        if not math.isfinite(g):  # a finite gap proves z finite
            _check_finite(z)
        return z, g, pk

    def _measure_shadow(self, z):
        y = self.U._project(z)
        v = 2.0 * y
        v -= z
        # 2y - z is non-finite when z is or when it overflows; a box or a cone
        # can project it back to finite points, so the gap proves nothing here
        pk = self.K._project(_check_finite(v))
        r = np.subtract(y, pk, out=v if pk is not v else None)  # v is spent unless it is pk
        return y, math.sqrt(r.dot(r)), pk

    def _dist(self, y):
        r = y - self.K._project(y)
        s = y - self.U._project(y)
        dk, du = math.sqrt(r.dot(r)), math.sqrt(s.dot(s))
        # P_U(y) rounds at about 2^-52 ||y||, so a shadow within the drift that
        # crm_step allows is on U; one farther off, as when P_U(z) of a far-out
        # z loses x_p to rounding, is not, and its distance to U counts too
        return dk if du <= AFFINE_TOL * math.sqrt(y.dot(y)) else max(dk, du)

    def _crm_step(self, z, y, g, pk):
        return _crm_from_projection(z, pk, self.U)

    def _map_step(self, z, y, g, pk):
        if not math.isfinite(g):  # a finite gap proves pk finite
            _check_finite(pk)
        return self.U._project(pk)

    def _drm_step(self, z, y, g, pk):
        # z + pk - y in place: pk is 2y - z or a new array (ConvexSet._project)
        pk += z
        pk -= y
        return pk

    def lift(self, z):
        return z


class _ConeAffine(_ByMethod):
    """``K ∩ U`` for a second-order cone ``K`` and an ``AffineSubspace`` ``U``,
    on iterates kept as coordinates in a span of at most four vectors.

    Write ``P_U(x) = x_p + L x``, with ``L`` the linear part of ``P_U``. For
    ``z = (t, u)`` outside both cones ``P_K(z) = alpha z + c e_0``, where
    ``s = (t + ||u||) / 2``, ``alpha = s / ||u||`` and ``c = s - alpha t``;
    inside ``K`` ``(alpha, c) = (1, 0)``, inside its polar ``(0, 0)``. For
    ``z in U``, ``L z = z - x_p``, so MAP's ``P_U(P_K(z))`` is
    ``x_p + alpha (z - x_p) + c w`` with ``w = L e_0``, and CRM's direction
    ``d = L(2 (P_K(z) - z))`` is ``2 ((alpha - 1)(z - x_p) + c w)``. Every
    iterate from the projected start ``z_0`` thus stays in the plane
    ``x_p + span{e, w}``, ``e = z_0 - x_p``, and is kept as its coordinates
    ``(beta, gamma)`` with ``z = x_p + beta e + gamma w``. Its entry ``t``
    and ``||u||^2`` come from the first entries and the Gram matrix of the
    other entries of ``x_p``, ``e`` and ``w``, and ``||d||^2`` from the Gram
    matrix of ``e`` and ``w``, so an iteration is scalar arithmetic. The gap
    is the distance to the cone, ``(||u|| - t) / sqrt(2)`` outside both
    cones; CRM takes ``<u, u> = 4 gap^2`` and ``<d, u> = <d, d>``, as ``L``
    is an orthogonal projector. What depends on ``U`` alone, ``w`` and the
    entries without ``e``, is computed once per subspace and cached
    (``AffineSubspace._cone_frame``); a run computes ``e``, its first entry
    and its three tail products with ``x_p``, ``e`` and ``w``.

    DRM iterates leave ``U`` but not ``span{x_p, e, w, e_0}``, as ``L x_p = 0``,
    ``L e = e`` and ``L w = w``; they are kept as ``(a, beta, gamma, delta)``
    with ``z = a x_p + beta e + gamma w + delta e_0``, from ``(1, 1, 0, 0)``.
    The shadow ``y = P_U(z) = x_p + beta e + (gamma + delta) w`` is a point of
    the plane, the reflection ``v = 2 y - z`` has coordinates
    ``(2 - a, beta, gamma + 2 delta, -delta)``, and the step
    ``z + P_K(v) - y`` and the gap ``||y - P_K(v)||`` need no further Gram
    entries, since the tail of ``e_0`` is zero. ``dist`` is the distance from
    ``lift(y)`` to ``K``. A run starts at ``(1, 0)``, or ``(1, 1, 0, 0)``.
    ``lift`` maps coordinates of the plane, the points the run tracks, to the
    point; coordinates of the span are never lifted. ``dist`` keeps the point
    it lifted, and ``lift`` returns it for that same shadow, so a converged
    shadow, which ``_drive`` lifts again as the final point, is lifted once.

    ``fits`` is false when the start leaves the arithmetic no headroom below
    overflow (see ``PLANE_HEADROOM``); ``run`` then uses ``_TwoSets``.
    """

    def __init__(self, K: SecondOrderCone, U: AffineSubspace, z: np.ndarray,
                 method: Method):
        w, (f0, f2), (g00, g02, g22) = U._cone_frame
        xp = U._xp
        e = z - xp
        t = e[1:]
        g01, g11, g12 = float(t.dot(xp[1:])), float(t.dot(t)), float(t.dot(w[1:]))
        f1 = float(e[0])
        self._vectors = xp, e, w
        self._first = f0, f1, f2
        self.fits = g00 + g11 + g22 + f0 * f0 + f1 * f1 + f2 * f2 < PLANE_HEADROOM
        self._tail = (g00, 2.0 * g01, 2.0 * g02, g11, 2.0 * g12, g22)
        self._plane = (g11 + f1 * f1, 2.0 * (g12 + f1 * f2), g22 + f2 * f2)
        self.K, self._method = K, method
        self._lifted = None, None

    def start(self, y):
        return (1.0, *y, 0.0) if self._method is Method.DRM else y  # DRM: y in the span

    def _measure_iterate(self, z):
        beta, gamma = z
        f0, f1, f2 = self._first
        g00, h01, h02, g11, h12, g22 = self._tail
        t = f0 + beta * f1 + gamma * f2
        nu2 = g00 + beta * (h01 + beta * g11 + gamma * h12) + gamma * (h02 + gamma * g22)
        nu = math.sqrt(nu2) if nu2 > 0.0 else 0.0  # nu2 can round below 0 on the axis
        zz = nu2 + t * t
        if nu <= t:
            return z, 0.0, (1.0, 0.0, zz)
        if nu <= -t:
            return z, math.sqrt(zz), (0.0, 0.0, zz)
        s = 0.5 * (t + nu)
        alpha = s / nu
        return z, (nu - t) * _SQRT_HALF, (alpha, s - alpha * t, zz)

    def _measure_shadow(self, z):
        a, beta, gamma, delta = z
        f0, f1, f2 = self._first
        g00, h01, h02, g11, h12, g22 = self._tail
        yw = gamma + delta  # y = x_p + beta e + yw w
        p, r = 2.0 - a, gamma + 2.0 * delta  # v = p x_p + beta e + r w - delta e_0
        if not math.isfinite(p + beta + r + delta):  # as _TwoSets checks 2y - z
            raise ValueError("point has non-finite entries")
        t = p * f0 + beta * f1 + r * f2 - delta
        nu2 = p * p * g00 + beta * (p * h01 + beta * g11 + r * h12) + r * (p * h02 + r * g22)
        nu = math.sqrt(nu2) if nu2 > 0.0 else 0.0
        if nu <= t:
            alpha, c, s = 1.0, 0.0, t
        elif nu <= -t:
            alpha = c = s = 0.0
        else:
            s = 0.5 * (t + nu)
            alpha = s / nu
            c = s - alpha * t
        # y - P_K(v): first entry, then the coordinates of its tail
        q0 = f0 + beta * f1 + yw * f2 - s
        qa, qb, qc = 1.0 - alpha * p, beta - alpha * beta, yw - alpha * r
        qq = qa * qa * g00 + qb * (qa * h01 + qb * g11 + qc * h12) + qc * (qa * h02 + qc * g22)
        return (beta, yw), math.sqrt(q0 * q0 + max(qq, 0.0)), (alpha, c, p, r)

    def _dist(self, y):
        x = self.lift(y)
        self._lifted = y, x
        r = x - self.K._project(x)
        return math.sqrt(r.dot(r))

    def _map_step(self, z, y, g, data):
        alpha, c, _ = data
        return alpha * z[0], alpha * z[1] + c

    def _crm_step(self, z, y, g, data):
        alpha, c, zz = data
        ee, ew, ww = self._plane
        p = (alpha - 1.0) * z[0]  # d = 2 (p e + q w)
        q = (alpha - 1.0) * z[1] + c
        dd = 4.0 * (p * (p * ee + q * ew) + q * q * ww)
        t = _crm_coefficient(4.0 * g * g, dd, dd, math.sqrt(zz))
        beta, gamma = z[0] + 2.0 * t * p, z[1] + 2.0 * t * q
        if not math.isfinite(beta + gamma):  # where P_U(z + t d) meets a non-finite entry
            raise ValueError("point has non-finite entries")
        return beta, gamma

    def _drm_step(self, z, y, g, data):
        a, beta, gamma, delta = z
        alpha, c, p, r = data  # z + P_K(v) - y
        return a - 1.0 + alpha * p, alpha * beta, alpha * r - delta, delta + c - alpha * delta

    def lift(self, z):
        y, x = self._lifted
        if z is y:
            return x
        xp, e, w = self._vectors
        # in place, summed as xp + beta e + gamma w; xp is finite, so adding
        # it second gives the same bits
        x = z[0] * e
        x += xp
        x += z[1] * w
        return x


def _drive(problem, y, config: SolverConfig) -> IterationTrace:
    """Iterate the configured method from ``y`` until the gap drops below tol.

    ``problem``, built for the configured method, holds iterates in whatever
    coordinates suit it and supplies five members:

    * ``start(y)`` returns the first iterate from the start ``y``, given as
      a point the method tracks;
    * ``measure(z)`` returns ``(y, gap, data)``: the point the method tracks,
      its gap, and what the step reuses;
    * ``step(z, y, gap, data)`` returns the next iterate;
    * ``lift(y)`` maps a tracked point ``y`` to the point of R^n (R^(nm) for
      the product space) that the trace reports; a CRM or MAP iterate is its
      own tracked point, and a DRM iterate is never lifted;
    * ``dist(y)`` is the distance from ``lift(y)`` to ``K``, and where
      rounding can leave ``lift(y)`` off ``U`` also the distance to ``U``
      beyond that rounding; or ``dist`` is None where the gap already is
      that distance.

    A gap below tol counts only if ``dist(y)``, at most the gap in exact
    arithmetic, is below tol too; otherwise that distance is recorded as the
    gap and the run goes on. A gap measured in other coordinates, or at the
    shadow of an iterate growing on an empty problem, can round below tol.

    For ``K ∩ U`` each iteration measures the gap ``||y - pk||`` between
    ``y``, the point of ``U`` the method tracks, and a projection ``pk`` onto
    ``K`` that the next step reuses. CRM and MAP iterates stay in ``U``:
    ``y = z`` and ``pk = P_K(z)``. DRM runs the reflected form
    ``z -> (z + R_K(R_U(z))) / 2``: ``y = P_U(z)``, ``pk = P_K(2y - z)`` and
    ``z -> z + pk - y``. From a start in ``U``, ``R_U`` maps its iterates onto
    those of the textbook ``(z + R_U(R_K(z))) / 2``, and ``P_U R_U = P_U``
    gives both the same gaps. When ``K ∩ U`` is empty the iterates diverge,
    but the cluster points of the shadow ``y`` are points of ``U`` nearest to
    ``K`` (Bauschke, Combettes and Luke, 2004). ``final_point`` is
    ``lift(y)`` for every method, the point where the last gap was measured,
    or the start when the first measurement fails.

    A MAP iterate that repeats bitwise with a gap of at least tol is a fixed
    point of ``P_U P_K`` off ``K``, which certifies ``K ∩ U = ∅``
    (Cheney-Goldstein); the run ends ``DEGENERATE``. The gap must also exceed
    ``STALL_FLOOR`` times the largest entry of the lifted iterate: a gap
    below that may be the rounding of the iterate, which stops it too. A CRM
    iterate whose gap is within rounding of its norm is a fixed point of the
    step (see ``_crm_coefficient``) and would repeat forever; that run ends
    ``DEGENERATE`` at once.

    Inputs are validated at the entry points (``run``, ``run_prod``); inside
    the loop the problem projects with the sets' unchecked ``_project`` and
    looks for non-finite entries only where the public ``project`` would
    have rejected a vector: on a non-finite gap, on the point a CRM step
    projects, and on the reflected point of DRM. A run ends ``NONFINITE``
    when a measurement or a step meets a non-finite entry (a gap it prevents
    is recorded as NaN) or when ``max_iter`` is reached on a non-finite gap;
    an overflowing gap alone is not fatal, as the next MAP or DRM iterate may
    come back. The entry points call the driver, and project the start,
    under ``np.errstate(over="ignore", invalid="ignore")``: an overflow shows
    as the inf or NaN that ends the run in a ``Status``, never as a
    ``RuntimeWarning``, which a warning filter would raise.
    """
    measure, step, lift, dist = problem.measure, problem.step, problem.lift, problem.dist
    tol, max_iter = config.tol, config.max_iter
    stall_check = config.method is Method.MAP  # one fixed-point rule for every problem
    gaps: list[float] = []
    iterations = 0
    z = prev = problem.start(y)

    while True:
        try:
            y, g, data = measure(z)
            if g < tol:
                rn = g if dist is None else dist(y)
                if rn < tol:
                    gaps.append(g)
                    status = Status.CONVERGED
                    break
                g = rn
        except ValueError:  # a projection met a non-finite entry
            gaps.append(math.nan)
            status = Status.NONFINITE
            break
        gaps.append(g)
        # the gap comparison is the cheap test; the iterate decides
        if (stall_check and iterations and g == gaps[-2] and np.array_equal(z, prev)
                and g > STALL_FLOOR * np.max(np.abs(lift(z)))):
            status = Status.DEGENERATE
            break
        if iterations >= max_iter:
            status = Status.MAX_ITER if math.isfinite(g) else Status.NONFINITE
            break
        prev = z
        try:
            z = step(z, y, g, data)
        except DegenerateConfiguration:
            status = Status.DEGENERATE
            break
        except ValueError:  # a projection met a non-finite entry
            status = Status.NONFINITE
            break
        iterations += 1

    return IterationTrace(
        gaps=gaps,
        iterations=iterations,
        status=status,
        final_point=lift(y),
    )


def run(K: ConvexSet, U: ConvexSet, z0, config: SolverConfig) -> IterationTrace:
    """Iterate the configured method from ``z0`` until the gap drops below tol.

    ``z0`` is projected onto ``U`` before the first step for every method
    (CRM requires it; MAP and DRM share the start for a fair comparison).
    CRM and MAP iterates stay in ``U`` and stop on ``||z - P_K(z)|| < tol``.
    DRM iterates ``z`` of ``(z + R_K(R_U(z))) / 2``, whose reflections
    ``R_U(z)`` are the textbook DRM iterates, and stops on
    ``||P_U(z) - P_K(R_U(z))|| < tol``; its ``final_point`` is the shadow
    ``P_U(z)``. See ``_drive``. All three methods on a ``SecondOrderCone``
    and an ``AffineSubspace`` (exactly these classes) run on coordinates, CRM
    and MAP in a plane of ``U`` and DRM in a span of four vectors (see
    ``_ConeAffine``), unless the start is within a factor ``2^20`` of
    overflow.
    """
    if not isinstance(K, ConvexSet):
        raise ValueError(f"K must be a single ConvexSet, not {type(K).__name__}")
    z0 = as_point(z0, U.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a Status
        return _drive(*_problem(K, U, z0, config), config)


def _problem(K: ConvexSet, U: ConvexSet, z0: np.ndarray, config: SolverConfig):
    """The problem that ``run`` drives from the checked start ``z0``, and the
    projected start as a point the problem tracks (see ``_drive``); to be
    called, as ``run`` does, with overflow ignored."""
    z = U._project(z0)
    if type(K) is SecondOrderCone and type(U) is AffineSubspace:
        cone = _ConeAffine(K, U, z, config.method)
        if cone.fits:
            return cone, (1.0, 0.0)
    return _TwoSets(K, U, config.method), z
