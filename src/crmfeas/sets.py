"""Catalog of closed convex sets with exact projection and reflection operators.

Every set knows its ambient dimension and exposes ``project``, ``reflect``
(``2 P - Id``) and ``contains``. Descriptors are immutable after construction
and all operations are pure, so shared instances are safe to use from
multiple threads.
"""

from __future__ import annotations

import math

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
    if not np.all(np.isfinite(p)):
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

    ``project(X)`` maps row ``i`` of a ``(k, n)`` array ``X`` to its
    projection onto the ``i``-th set; ``sums(x)`` returns
    ``(sum_i P_i(x), sum_i ||P_i(x) - x||^2)`` for one point ``x``. This
    generic form calls each set's ``_project`` in turn; the catalog kinds with
    a vectorized form subclass it (see ``_row_projector``). The default
    ``sums`` passes ``x`` itself as ``X``, to be taken as every row, so a
    subclass that keeps it must broadcast ``X``.
    """

    def __init__(self, sets):
        self.sets = list(sets)

    def project(self, X):
        X = np.broadcast_to(X, (len(self.sets), X.shape[-1]))
        return np.array([s._project(x) for s, x in zip(self.sets, X)])

    def sums(self, x):
        # the rows add up in order, as the blocks of P_W(lift(x)) do in P_D
        P = self.project(x)
        R = (P - x).ravel()
        return P.sum(axis=0), float(R.dot(R))


class Halfspace(ConvexSet):
    """Halfspace ``{x : a^T x <= b}`` with nonzero normal ``a``."""

    def __init__(self, a, b: float):
        self.a = as_point(a)
        if not np.any(self.a):
            raise ValueError("halfspace normal must be nonzero")
        self.b = float(b)
        self.dim = self.a.size
        self._a_sq = float(self.a @ self.a)

    def _project(self, x):
        r = float(self.a @ x) - self.b
        if r <= 0.0:
            return x
        return x - (r / self._a_sq) * self.a

    def __repr__(self):
        return f"Halfspace(dim={self.dim}, b={self.b})"


class _HalfspaceRows(_Rows):
    """Halfspaces ``a_i^T x <= b_i`` as the rows of ``A x <= b``: with
    ``c = max(A x - b, 0) / ||a_i||^2`` the projections of ``x`` sum to
    ``k x - A^T c`` and their squared residuals to ``<max(A x - b, 0), c>``,
    in O(k + n) memory besides ``A``."""

    def __init__(self, halfspaces):
        super().__init__(halfspaces)
        self.A = np.array([h.a for h in halfspaces])
        self.b = np.array([h.b for h in halfspaces])
        self.a_sq = np.einsum("ij,ij->i", self.A, self.A)

    def project(self, X):
        excess = np.maximum(np.einsum("ij,ij->i", self.A, X) - self.b, 0.0)
        return X - (excess / self.a_sq)[:, None] * self.A

    def sums(self, x):
        excess = np.maximum(self.A @ x - self.b, 0.0)
        c = excess / self.a_sq
        return self.b.size * x - c @ self.A, float(excess @ c)


class Hyperplane(ConvexSet):
    """Hyperplane ``{x : a^T x = b}`` with nonzero normal ``a``."""

    def __init__(self, a, b: float):
        self.a = as_point(a)
        if not np.any(self.a):
            raise ValueError("hyperplane normal must be nonzero")
        self.b = float(b)
        self.dim = self.a.size
        self._a_sq = float(self.a @ self.a)

    def _project(self, x):
        r = float(self.a @ x) - self.b
        return x - (r / self._a_sq) * self.a

    def __repr__(self):
        return f"Hyperplane(dim={self.dim}, b={self.b})"


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

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim}, rows={self.A.shape[0]}, rank={self.rank})"


class Ball(ConvexSet):
    """Closed Euclidean ball with given center and positive radius."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.size

    def _project(self, x):
        d = x - self.center
        dist = float(la.norm(d))
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d

    def __repr__(self):
        return f"Ball(dim={self.dim}, radius={self.radius})"


class _BallRows(_Rows):
    """Balls with stacked centers and radii."""

    def __init__(self, balls):
        super().__init__(balls)
        self.C = np.array([b.center for b in balls])
        self.r = np.array([b.radius for b in balls])

    def project(self, X):
        D = X - self.C
        dist = np.sqrt(np.einsum("ij,ij->i", D, D))
        # c + (r / dist) (x - c) outside the ball; c + (x - c) is not always x,
        # so the rows inside are copied
        D *= (self.r / np.maximum(dist, self.r))[:, None]
        D += self.C
        np.copyto(D, X, where=(dist <= self.r)[:, None])
        return D


class Box(ConvexSet):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (componentwise)."""

    def __init__(self, lower, upper):
        self.lower = as_point(lower)
        self.upper = as_point(upper, self.lower.size)
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.size

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    def __repr__(self):
        return f"Box(dim={self.dim})"


class _BoxRows(_Rows):
    """Boxes with stacked bounds. ``lower <= upper``, so ``min(max(X, lower),
    upper)`` is ``np.clip`` at a fraction of its call overhead."""

    def __init__(self, boxes):
        super().__init__(boxes)
        self.lower = np.array([b.lower for b in boxes])
        self.upper = np.array([b.upper for b in boxes])

    def project(self, X):
        return np.minimum(np.maximum(X, self.lower), self.upper)


class SecondOrderCone(ConvexSet):
    """Second-order (Lorentz) cone ``{(t, u) in R x R^(n-1) : ||u|| <= t}``.

    The projector is the standard closed form: points inside the cone are
    fixed, points inside the polar cone (``||u|| <= -t``) map to the origin,
    and all others map to ``((t + ||u||) / 2) * (1, u / ||u||)``.
    """

    def __init__(self, n: int):
        if int(n) != n or n < 2:
            raise ValueError("second-order cone needs integer dimension n >= 2")
        self.n = int(n)
        self.dim = self.n

    def _project(self, x):
        t, u = x[0], x[1:]
        nu = float(la.norm(u))
        if nu <= t:
            return x
        if nu <= -t:
            return np.zeros_like(x)
        s = 0.5 * (t + nu)
        out = np.empty_like(x)
        out[0] = s
        out[1:] = (s / nu) * u
        return out

    def __repr__(self):
        return f"SecondOrderCone(n={self.n})"


class _ConeRows(_Rows):
    """Second-order cones of one dimension, which are all the same set: the
    sums weight one projection by the count, and ``project`` applies the
    closed form to every row."""

    def project(self, X):
        t, U = X[:, 0], X[:, 1:]
        nu = np.sqrt(np.einsum("ij,ij->i", U, U))
        out = np.array(X)
        out[(nu <= -t) & (nu > t)] = 0.0  # the polar cone, apex excluded
        mid = nu > np.abs(t)  # so nu > 0 where it divides
        s = 0.5 * (t[mid] + nu[mid])
        out[mid, 0] = s
        out[mid, 1:] = (s / nu[mid])[:, None] * U[mid]
        return out

    def sums(self, x):
        k = len(self.sets)
        p = self.sets[0]._project(x)
        r = p - x
        return k * p, k * float(r.dot(r))


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
# This is the wire format used inside problem files.

def set_to_dict(s: ConvexSet) -> dict:
    """Serialize a set descriptor to a JSON-compatible dict."""
    if isinstance(s, Halfspace):
        return {"type": "halfspace", "a": s.a.tolist(), "b": s.b}
    if isinstance(s, Hyperplane):
        return {"type": "hyperplane", "a": s.a.tolist(), "b": s.b}
    if isinstance(s, AffineSubspace):
        return {"type": "affine", "A": s.A.tolist(), "b": s.b.tolist()}
    if isinstance(s, Ball):
        return {"type": "ball", "center": s.center.tolist(), "radius": s.radius}
    if isinstance(s, Box):
        return {"type": "box", "lower": s.lower.tolist(), "upper": s.upper.tolist()}
    if isinstance(s, SecondOrderCone):
        return {"type": "soc", "n": s.n}
    raise TypeError(f"cannot serialize set of type {type(s).__name__}")


def _require(d: dict, *fields: str) -> list:
    missing = [f for f in fields if f not in d]
    if missing:
        raise ParseError(f"set object missing field(s): {', '.join(missing)}")
    return [d[f] for f in fields]


def set_from_dict(d: dict) -> ConvexSet:
    """Rebuild a set descriptor from its dict form.

    Raises ``ParseError`` on unknown types or missing fields.
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ParseError("set object must be a dict with a 'type' field")
    kind = d["type"]
    try:
        if kind == "halfspace":
            a, b = _require(d, "a", "b")
            return Halfspace(a, b)
        if kind == "hyperplane":
            a, b = _require(d, "a", "b")
            return Hyperplane(a, b)
        if kind == "affine":
            A, b = _require(d, "A", "b")
            return AffineSubspace(A, b)
        if kind == "ball":
            center, radius = _require(d, "center", "radius")
            return Ball(center, radius)
        if kind == "box":
            lower, upper = _require(d, "lower", "upper")
            return Box(lower, upper)
        if kind == "soc":
            (n,) = _require(d, "n")
            return SecondOrderCone(n)
    except (ValueError, DimensionMismatch) as exc:
        raise ParseError(f"invalid '{kind}' set object: {exc}") from exc
    raise ParseError(f"unknown set type {kind!r}")
