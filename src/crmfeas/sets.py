"""Catalog of closed convex sets with exact projection and reflection operators.

Every set knows its ambient dimension and exposes ``project``, ``reflect``
(``2 P - Id``) and ``contains``. Descriptors are immutable after construction
and all operations are pure, so shared instances are safe to use from
multiple threads.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy import linalg as la

from .errors import DimensionMismatch, ParseError

__all__ = [
    "as_point",
    "ConvexSet",
    "Halfspace",
    "Hyperplane",
    "AffineSubspace",
    "Ball",
    "Box",
    "SecondOrderCone",
    "set_to_dict",
    "set_from_dict",
]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of length ``dim``.

    Raises
    ------
    DimensionMismatch
        If ``x`` is not 1-D or its length differs from ``dim``.
    ValueError
        If any entry is NaN or infinite.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got array of shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite entries")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def _check_finite(x: np.ndarray) -> np.ndarray:
    """Return the vector ``x``; raise ``ValueError``, as ``as_point`` does, if it
    has a NaN or infinite entry."""
    # x.x is finite unless x has a non-finite or a huge entry; only then look closer
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise ValueError("point has non-finite entries")
    return x


class ConvexSet:
    """A nonempty closed convex set in R^n with an exact orthogonal projector."""

    dim: int

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the set to the finite vector ``x``, unchecked: a new
        array or ``x`` itself, never one the set keeps, so that a caller may
        write into it (as a DRM step does) wherever it may write into ``x``."""
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``."""
        return self._project(as_point(x, self.dim))

    def reflect(self, x) -> np.ndarray:
        """Reflection ``2 P(x) - x`` across the set."""
        x = as_point(x, self.dim)
        return 2.0 * self._project(x) - x

    def contains(self, x, tol: float = 1e-10) -> bool:
        """True iff the distance from ``x`` to the set is at most ``tol``."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        x = as_point(x, self.dim)
        return float(la.norm(x - self._project(x))) <= tol


class _Rows:
    """Projector onto each of several sets at once, row by row.

    ``project(X, out)`` writes into row ``i`` of ``out`` the projection of row
    ``i`` of a ``(k, n)`` array ``X`` onto the ``i``-th set, or, for one point
    ``X`` of R^n, the projections of that point; ``out`` is a ``(k, n)``
    array, or a row slice of a larger one, that does not overlap ``X``.
    This generic form calls each set's ``_project`` in turn; the catalog
    kinds with a vectorized form subclass it (see ``_row_projector``).
    """

    def __init__(self, sets):
        self.sets = list(sets)

    def project(self, X, out):
        for i, (s, x) in enumerate(zip(self.sets, np.broadcast_to(X, out.shape))):
            out[i] = s._project(x)


class _Normal(ConvexSet):
    """A set ``{x : a^T x <= b}`` or ``{x : a^T x = b}``: a finite normal ``a``
    whose squared norm is positive and finite, and a finite offset ``b``."""

    def __init__(self, a, b: float):
        self.a = as_point(a)
        self.b = float(b)
        if not math.isfinite(self.b):
            raise ValueError("offset b must be finite")
        with np.errstate(over="ignore"):
            self._a_sq = float(self.a.dot(self.a))
        # a tiny normal's square underflows to 0, so projecting divides by
        # zero; a huge one's overflows to inf, so every point projects to itself
        if not 0.0 < self._a_sq < math.inf:
            raise ValueError("normal must have a positive and finite squared norm")
        self.dim = self.a.size

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, b={self.b})"


class Halfspace(_Normal):
    """Halfspace ``{x : a^T x <= b}`` with nonzero normal ``a``."""

    def _project(self, x):
        r = float(self.a.dot(x)) - self.b
        if r <= 0.0:
            return x
        return x - (r / self._a_sq) * self.a


class _HalfspaceRows(_Rows):
    """Halfspaces ``a_i^T x <= b_i`` as the rows of ``A x <= b``, with the
    squared norms ``a_sq`` of the normals."""

    def __init__(self, halfspaces):
        super().__init__(halfspaces)
        self.A = np.array([h.a for h in halfspaces])
        self.b = np.array([h.b for h in halfspaces])
        self.a_sq = np.einsum("ij,ij->i", self.A, self.A)

    def project(self, X, out):
        c = self.A.dot(X) if X.ndim == 1 else np.einsum("ij,ij->i", self.A, X)
        c -= self.b
        np.maximum(c, 0.0, out=c)
        c /= self.a_sq
        out[...] = X
        out -= c[:, None] * self.A


class Hyperplane(_Normal):
    """Hyperplane ``{x : a^T x = b}`` with nonzero normal ``a``."""

    def _project(self, x):
        r = float(self.a.dot(x)) - self.b
        return x - (r / self._a_sq) * self.a


class AffineSubspace(ConvexSet):
    """Affine subspace ``{x : A x = b}``.

    The projector is cached at construction from one SVD of ``A``, which
    yields the minimum-norm particular solution ``x_p`` and one orthonormal
    basis: for rank ``r <= n / 2`` a basis ``V`` of the row space, with
    ``P(x) = x - V V^T (x - x_p)``; above that a basis ``N`` of the null
    space, with ``P(x) = x_p + N N^T x``. A projection then costs
    ``O(n min(r, n - r))`` and the basis takes ``n min(r, n - r)`` floats.
    Singular values below ``1e-12 * sigma_max`` are treated as zero, so
    rank-deficient (but consistent) systems are handled.

    The first second-order cone run on the subspace (see
    ``methods._ConeAffine``) also caches ``_cone_frame``, its constants that
    depend on the subspace alone: ``n`` more floats, kept for every later run.

    Raises
    ------
    ValueError
        If the system ``A x = b`` is inconsistent (least-squares residual
        above ``1e-10 * (1 + ||b||)``).
    """

    RANK_TOL = 1e-12
    CONSISTENCY_TOL = 1e-10

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        if A.ndim == 1:
            A = A.reshape(1, -1)
        if A.ndim != 2:
            raise DimensionMismatch(f"A must be a matrix, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A has non-finite entries")
        self.A = A
        self.b = as_point(b, A.shape[0])
        self.dim = A.shape[1]

        n = self.dim
        # the null space needs all n right singular vectors only when the
        # rank can exceed n / 2 and the thin SVD gives fewer than n
        U, s, Vt = la.svd(A, full_matrices=n < 2 * A.shape[0] < 2 * n)
        self.rank = rank = int(np.sum(s > self.RANK_TOL * s[0])) if s.size else 0
        self._xp = Vt[:rank].T @ ((U[:, :rank].T @ self.b) / s[:rank])
        residual = float(la.norm(A @ self._xp - self.b))
        if residual > self.CONSISTENCY_TOL * (1.0 + float(la.norm(self.b))):
            raise ValueError(f"inconsistent system A x = b (residual {residual:.3e})")
        # rows of the basis: V^T (r x n) or N^T ((n - r) x n), copied so that
        # the full factors are freed
        self._null = 2 * rank > n
        self._basis = (Vt[rank:] if self._null else Vt[:rank]).copy()

    def _project(self, x):
        B = self._basis
        if self._null:
            return self._xp + B.T @ (B @ x)
        return x - B.T @ (B @ (x - self._xp))

    def _linear(self, v):
        """The linear part ``L`` of the projector, ``P(x) = x_p + L x``: the
        orthogonal projector onto the null space of ``A`` (``x_p`` lies in the
        row space)."""
        B = self._basis
        if self._null:
            return B.T @ (B @ v)
        return v - B.T @ (B @ v)

    @cached_property
    def _cone_frame(self):
        """``(w, (x_p[0], w[0]), (<x_p', x_p'>, <x_p', w'>, <w', w'>))`` with
        ``w = L e_0``, a prime dropping entry 0: what a run of
        ``methods._ConeAffine`` needs of the subspace alone. Built on first use
        and kept (two threads that ask at once each build the same tuple)."""
        e0 = np.zeros(self.dim)
        e0[0] = 1.0
        w = self._linear(e0)
        T = np.array([self._xp[1:], w[1:]])
        (g00, g02), (_, g22) = (T @ T.T).tolist()
        return w, (float(self._xp[0]), float(w[0])), (g00, g02, g22)

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim}, rows={self.A.shape[0]}, rank={self.rank})"


class Ball(ConvexSet):
    """Closed Euclidean ball with given center and positive, finite radius."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if not 0.0 < self.radius < math.inf:  # NaN fails this too
            raise ValueError("radius must be positive and finite")
        self.dim = self.center.size

    def _project(self, x):
        d = x - self.center
        dist = math.sqrt(d.dot(d))
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d

    def __repr__(self):
        return f"Ball(dim={self.dim}, radius={self.radius})"


class _BallRows(_Rows):
    """Balls with stacked centers and radii. When every ball holds its row,
    ``project`` copies the rows and skips the arithmetic, as those rows are
    copied in any case."""

    def __init__(self, balls):
        super().__init__(balls)
        self.C = np.array([b.center for b in balls])
        self.r = np.array([b.radius for b in balls])

    def project(self, X, out):
        D = np.subtract(X, self.C, out=out)
        dist = np.sqrt(np.einsum("ij,ij->i", D, D))
        inside = dist <= self.r
        if np.logical_and.reduce(inside):  # inside.all() without its wrapper
            out[...] = X
            return
        # c + (r / dist) (x - c) outside the ball; c + (x - c) is not always x,
        # so the rows inside are copied
        D *= (self.r / np.maximum(dist, self.r))[:, None]
        D += self.C
        np.copyto(D, X, where=inside[:, None])


class Box(ConvexSet):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (componentwise)."""

    def __init__(self, lower, upper):
        self.lower = as_point(lower)
        self.upper = as_point(upper, self.lower.size)
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.size

    def _project(self, x):
        # lower <= upper, so this is np.clip at a fraction of its call cost
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def __repr__(self):
        return f"Box(dim={self.dim})"


class _BoxRows(_Rows):
    """Boxes with stacked bounds, clipped as by ``Box._project``."""

    def __init__(self, boxes):
        super().__init__(boxes)
        self.lower = np.array([b.lower for b in boxes])
        self.upper = np.array([b.upper for b in boxes])

    def project(self, X, out):
        np.minimum(np.maximum(X, self.lower, out=out), self.upper, out=out)


class SecondOrderCone(ConvexSet):
    """Second-order (Lorentz) cone ``{(t, u) in R x R^(n-1) : ||u|| <= t}``.

    The projector is the standard closed form: points inside the cone are
    fixed, points inside the polar cone (``||u|| <= -t``) map to the origin,
    and all others to one scaling of ``x`` with entry 0 replaced:
    ``(s / ||u||) x`` with first entry ``s = (t + ||u||) / 2``.
    """

    def __init__(self, n: int):
        if not 2 <= n < math.inf or int(n) != n:
            raise ValueError("second-order cone needs integer dimension n >= 2")
        self.n = int(n)
        self.dim = self.n

    def _project(self, x):
        t, u = float(x[0]), x[1:]
        nu = math.sqrt(u.dot(u))
        if nu <= t:
            return x
        if not nu > -t:  # the polar cone, or a NaN t or ||u||, as in _ConeRows
            return np.zeros_like(x)
        s = 0.5 * (t + nu)
        out = (s / nu) * x
        out[0] = s
        return out

    def __repr__(self):
        return f"SecondOrderCone(n={self.n})"


class _ConeRows(_Rows):
    """Second-order cones of one dimension, which are all the same set:
    ``project`` projects one point once for every row, and an array by the
    closed form of ``SecondOrderCone._project`` as one scale of each row and
    its first entry: ``(1, t)`` inside the cone, ``(s / ||u||, s)`` outside
    both cones (NaN and ``inf`` where ``||u||^2`` overflows, as there), and
    ``(0, 0)`` in the polar cone, whose rows are then set to ``+0.0``. Its
    ``||u||`` comes from ``einsum``, which can round differently from the
    single cone's ``dot``; where the two agree, so do the rows, bitwise."""

    def project(self, X, out):
        if X.ndim == 1:  # one point, so one projection
            out[...] = self.sets[0]._project(X)
            return
        t, U = X[:, 0], X[:, 1:]
        nu = np.sqrt(np.einsum("ij,ij->i", U, U))
        s = 0.5 * (t + nu)
        inside, mid = nu <= t, nu > np.abs(t)  # mid: nu > 0 where it divides
        scale = np.where(mid, math.nan, inside)
        np.divide(s, nu, out=scale, where=mid & (nu < math.inf))
        np.multiply(X, scale[:, None], out=out)
        np.copyto(out[:, 0], s, where=mid)
        polar = ~(inside | mid)
        if polar.any():  # 0 x keeps the signs of x
            out[polar] = 0.0


_ROWS = {Halfspace: _HalfspaceRows, Ball: _BallRows, Box: _BoxRows,
         SecondOrderCone: _ConeRows}


def _row_projector(sets) -> _Rows:
    """One row-wise projector for a nonempty list of sets of one class.

    Halfspaces, balls, boxes and second-order cones are projected in
    vectorized passes over their stacked parameters; other sets, subclasses
    of these four included, one at a time through their own ``_project``.
    """
    return _ROWS.get(type(sets[0]), _Rows)(sets)


# --- JSON codec -------------------------------------------------------------
#
# One object per set: {"type": "halfspace", "a": [...], "b": ...} etc.
# This is the wire format used inside problem files. Each wire name maps to
# its class and the constructor arguments, in order, which the set keeps as
# attributes of the same names.

_CODEC = {
    "halfspace": (Halfspace, ("a", "b")),
    "hyperplane": (Hyperplane, ("a", "b")),
    "affine": (AffineSubspace, ("A", "b")),
    "ball": (Ball, ("center", "radius")),
    "box": (Box, ("lower", "upper")),
    "soc": (SecondOrderCone, ("n",)),
}


def set_to_dict(s: ConvexSet) -> dict:
    """Serialize a set descriptor to a JSON-compatible dict."""
    for kind, (cls, fields) in _CODEC.items():
        if isinstance(s, cls):
            return {"type": kind, **{f: np.asarray(getattr(s, f)).tolist() for f in fields}}
    raise TypeError(f"cannot serialize set of type {type(s).__name__}")


def set_from_dict(d: dict) -> ConvexSet:
    """Rebuild a set descriptor from its dict form.

    Raises ``ParseError`` on unknown types, missing fields or values the
    set's constructor rejects.
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ParseError("set object must be a dict with a 'type' field")
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _CODEC:
        raise ParseError(f"unknown set type {kind!r}")
    cls, fields = _CODEC[kind]
    missing = [f for f in fields if f not in d]
    if missing:
        raise ParseError(f"set object missing field(s): {', '.join(missing)}")
    try:
        return cls(*(d[f] for f in fields))
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"invalid '{kind}' set object: {exc}") from exc
