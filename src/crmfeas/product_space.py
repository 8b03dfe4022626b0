"""Product-space reformulation of an m-set intersection problem.

A point common to sets ``X_1, ..., X_m`` in R^n is sought as a point of
``W ∩ D`` in R^(nm), where ``W = X_1 x ... x X_m`` and ``D`` is the diagonal
subspace ``{(x, ..., x)}``. ``D`` is an affine subspace, so the CRM step
and the driver of :mod:`crmfeas.methods` apply with ``K := W`` and
``U := D``; this module supplies the two sets, the lift/restrict maps and
``run_prod``.

On the diagonal the product-space MAP and CRM are Cimmino's method and
Pierra's extrapolated parallel projection method in R^n, and ``run_prod``
runs them in that form (``_Diagonal``). DRM leaves the diagonal, and
``run_prod`` runs it as the two-set problem of :mod:`crmfeas.methods` on
``W``, its factors in group order, and ``D``. A product of halfspaces
``A x <= b`` takes its projection sums in closed form (``_Halfspaces``), and
from a start that is not far out runs DRM, and MAP where its normals are
independent, on ``w`` with ``x = x_0 + A^T w`` instead (``_RowSpace``).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy import linalg as la

# not called here; perfbench/tracing.py wraps the name in every module binding it
from .circumcenter import circumcenter  # noqa: F401
from .errors import DimensionMismatch, NotDiagonal
from .methods import (IterationTrace, Method, SolverConfig, _ByMethod, _crm_coefficient, _drive,
                      _positive_int, _TwoSets, crm_step)
from .sets import ConvexSet, _check_finite, _HalfspaceRows, _row_projector, as_point

__all__ = [
    "ProductSet",
    "DiagonalSubspace",
    "lift",
    "restrict",
    "crm_prod_step",
    "run_prod",
]

DIAG_TOL = 1e-8
# a normal whose squared distance from the span of the normals before it is
# at most this fraction of its squared norm counts as dependent (see _gram)
RANK_TOL = 2.0 ** -20
# _RowSpace runs only while this multiple of the largest entry of A x_0 and of
# b is below tol: the rounding of A x - b = (A x_0 - b) + G w, about 2^-52 of
# that scale, then stays 2^10 times below tol. Its DRM carries A x - b as a
# running sum, which gains that rounding at every step, and takes it afresh
# as (A x_0 - b) + G w every floor(tol / (ROW_HEADROOM * scale)) steps, so
# that the sum too stays 2^10 times below tol.
ROW_HEADROOM = 2.0 ** -42


class ProductSet(ConvexSet):
    """Cartesian product ``X_1 x ... x X_m`` of same-dimension catalog sets.

    Projection is blockwise and independent per factor. The factors are
    grouped by class at construction and kept in group order: a permutation
    of the blocks and one row slice per group. Each group is projected in one
    pass (see :func:`crmfeas.sets._row_projector`): halfspaces as the rows of
    ``A x <= b``, balls and boxes through their stacked parameters,
    second-order cones row by row, and other sets one at a time, each
    group's kernel writing into its row slice of one group-ordered array.
    Where that order is not the factor order, ``_inner`` is the product of
    the same factors in group order, whose kernels this product shares, and
    ``_project`` gathers the blocks into group order, projects them with
    ``_inner`` and scatters them back. ``_halfspaces`` is the kernel of a
    product whose factors are all ``Halfspace`` (exactly that class), else
    None: only such a product has closed forms for the runs of ``run_prod``,
    which picks its adapter by it, and only such a product builds ``_gram``.
    The result does not depend on the order of the factors beyond rounding.
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
        # the group order: row j of a group-ordered (m, n) array holds block
        # _order[j], and block i is its row _inverse[i]; these and _inner are
        # None when the group order is the factor order
        order = [i for idx in groups.values() for i in idx]
        self._inner = self._order = self._inverse = self._halfspaces = None
        if order != list(range(self.m)):
            self._inner = ProductSet([self.factors[i] for i in order])
            self._groups = self._inner._groups
            # not argsort, whose first call maps numpy's sort kernels, 0.4 MB
            self._order, self._inverse = np.array(order), np.empty(self.m, dtype=np.intp)
            self._inverse[self._order] = np.arange(self.m)
            return
        self._groups, start = [], 0
        for idx in groups.values():
            rows = _row_projector([self.factors[i] for i in idx])
            self._groups.append((slice(start, start + len(idx)), rows))
            start += len(idx)
        self._halfspaces = rows if len(groups) == 1 and type(rows) is _HalfspaceRows else None

    def _project(self, z):
        X = z.reshape(self.m, self.block_dim)
        if self._inner is not None:
            P = self._inner._project(X[self._order].ravel()).reshape(self.m, self.block_dim)
            return P[self._inverse].ravel()
        P = np.empty((self.m, self.block_dim))
        for rows_slice, rows in self._groups:
            rows.project(X[rows_slice], P[rows_slice])
        return P.ravel()

    @cached_property
    def _gram(self):
        """``G = A A^T`` of a product of halfspaces ``A x <= b`` when the
        normals are independent (``RANK_TOL``), so that ``G`` is positive
        definite, else None; built on first use and kept (two threads that ask
        at once each build the same ``G``).

        Row ``j`` of ``G``, from the diagonal on, and column ``j`` of its
        Cholesky factor are taken in one pass over the rows, in
        matrix-vector products only: a matrix-matrix product or a LAPACK
        call would map the BLAS level-3 buffer and LAPACK's pages, more
        memory than ``G`` itself. The factor is kept below the diagonal, which
        then gets the upper triangle back. More rows than columns are
        dependent, and are rejected before anything is built."""
        A = self._halfspaces.A
        k, n = A.shape
        if k > n:
            return None
        G = np.empty((k, k))
        for j, a in enumerate(A):
            G[j, j:] = A[j:] @ a
            lj = G[j, :j]
            pivot = G[j, j] - lj.dot(lj)  # squared distance of a_j from a_0 .. a_(j-1)
            if not pivot > RANK_TOL * G[j, j]:
                return None
            G[j + 1:, j] = (G[j, j + 1:] - G[j + 1:, :j] @ lj) / math.sqrt(pivot)
        for j in range(k - 1):
            G[j + 1:, j] = G[j, j + 1:]
        return G

    def __repr__(self):
        return f"ProductSet(m={self.m}, block_dim={self.block_dim})"


class DiagonalSubspace(ConvexSet):
    """Diagonal subspace ``D = {(x, ..., x) in R^(nm)}`` for m blocks of size n.

    A linear subspace (contains the origin); its projector replaces every
    block by the blockwise mean, the blocks added by ``np.add.reduce`` and
    divided by m: what ``mean(axis=0)`` computes, without its wrapper.
    """

    def __init__(self, n: int, m: int):
        self.n = _positive_int(n, "block dimension n")
        self.m = _positive_int(m, "block count m")
        self.dim = self.n * self.m

    def _project(self, z):
        out = np.empty((self.m, self.n))
        out[...] = np.add.reduce(z.reshape(self.m, self.n), 0) / self.m
        return out.ravel()

    _linear = _project  # D is a linear subspace: P_D is its own linear part

    def __repr__(self):
        return f"DiagonalSubspace(n={self.n}, m={self.m})"


def lift(x, m: int) -> np.ndarray:
    """Concatenate ``m`` copies of ``x``; the result lies in ``D`` exactly."""
    return np.tile(as_point(x), _positive_int(m, "m"))


def restrict(z, m: int) -> np.ndarray:
    """Blockwise average of a near-diagonal point (the inverse of ``lift``).

    Raises ``NotDiagonal`` when some block deviates from the average by more
    than ``1e-8 * (1 + ||z||)``.
    """
    z, m = as_point(z), _positive_int(m, "m")
    if z.size % m:
        raise DimensionMismatch(f"dimension {z.size} is not divisible into {m} blocks")
    X = z.reshape(m, z.size // m)
    mean = X.mean(axis=0)
    dev = float(np.max(la.norm(X - mean, axis=1))) if m > 1 else 0.0
    if dev > DIAG_TOL * (1.0 + float(la.norm(X))):
        raise NotDiagonal(f"blocks deviate from their mean by {dev:.3e}")
    return mean


def crm_prod_step(W: ProductSet, z) -> np.ndarray:
    """Circumcenter step ``P_D(circ{z, R_W(z), R_D R_W(z)})`` for ``z in D``.

    This is :func:`crmfeas.methods.crm_step` with ``K := W`` and ``U := D``;
    it raises ``NotInAffine`` unless ``z`` lies in ``D`` (within ``1e-8``
    relative).
    """
    return crm_step(W, DiagonalSubspace(W.block_dim, W.m), z)


class _Diagonal(_ByMethod):
    """``W ∩ D`` for :func:`crmfeas.methods._drive`, for CRM or MAP, on any
    product ``W`` but one of halfspaces (see ``_Halfspaces``).

    Iterates ``z = lift(x)`` are kept as ``x in R^n``.
    ``P_W(z)`` has blocks ``P_{X_i}(x)``; let ``p`` be their sum and
    ``r_i = P_{X_i}(x) - x``. The gap is ``(sum ||r_i||^2)^(1/2)``, and MAP's
    ``P_D(P_W(z))`` is ``lift(p / m)``: Cimmino's method. CRM's
    ``u = 2 (P_W(z) - z)`` and ``d = P_D(z + u) - z = lift(2 (p / m - x))``
    have ``<u, u> = 4 sum ||r_i||^2`` and ``<d, u> = <d, d> = m ||2 (p / m - x)||^2``,
    from which the CRM rule gives ``x + 2 t (p / m - x)``: Pierra's
    extrapolated parallel projection method (Pierra 1984; Combettes 1994).
    The gap is the distance from ``lift(x)`` to ``W``, so there is no ``dist``.
    A measurement has each group's kernel project ``x`` into its row view of
    a group-ordered ``(m, n)`` array of the run's own, so that ``W`` stays
    immutable, and reduces it into ``p``, a new array, as ``P.sum(axis=0)``
    adds it, without that method's wrapper. It checks ``x`` only where
    ``sum ||r_i||^2`` is not finite, as each ``r_i`` is non-finite wherever
    ``x`` is. The step computes the next iterate in ``p``.
    """

    def __init__(self, W: ProductSet, method: Method):
        self._m, self._method = W.m, method
        P = np.empty((W.m, W.block_dim))
        # the array, its flat view, and each group's kernel with its row view
        self._work = P, P.ravel(), [(rows, P[rows_slice]) for rows_slice, rows in W._groups]

    def _measure_iterate(self, x):
        P, R, views = self._work
        for rows, out in views:
            rows.project(x, out)
        total = np.add.reduce(P, 0)
        P -= x
        sq = float(R.dot(R))
        if not math.isfinite(sq):  # as P_W(lift(x)) checks its argument in R^(nm)
            _check_finite(x)
        return x, math.sqrt(sq), (total, sq)

    def _map_step(self, x, y, g, data):
        return np.divide(data[0], self._m, out=data[0])

    def _crm_step(self, x, y, g, data):
        d, sq = data  # d = 2 (p / m - x), then x + t d, in p
        m = self._m
        d /= m
        d -= x
        d *= 2.0
        dd = m * float(d.dot(d))
        d *= _crm_coefficient(4.0 * sq, dd, dd, math.sqrt(m) * math.sqrt(x.dot(x)))
        d += x
        return _check_finite(d)  # as P_D(z + t d) checks its argument in R^(nm)

    def lift(self, x):
        return np.tile(x, self._m)


class _Halfspaces(_Diagonal):
    """``_Diagonal`` on a product ``W`` of ``Halfspace`` factors (exactly that
    class), the rows of ``A x <= b`` (``W._halfspaces``), in closed forms, so
    that no run holds a workspace: CRM-prod, and MAP-prod where ``_RowSpace``
    does not fit.

    With ``c = max(A x - b, 0) / ||a_i||^2`` the projections of ``x`` sum to
    ``m x - A^T c`` and their squared residuals to ``<max(A x - b, 0), c>``
    (``_sums``), in O(m + n) memory besides ``A``. Those sums can be finite at
    a non-finite ``x``, so every measurement checks ``x``. ``_dist`` is the
    distance from ``lift(x)`` to ``W``, in closed form.
    """

    def __init__(self, W: ProductSet, method: Method):
        self.W, self._m, self._method, self._rows = W, W.m, method, W._halfspaces

    def _measure_iterate(self, x):
        _check_finite(x)
        total, sq = self._sums(x)
        return x, math.sqrt(sq), (total, sq)

    def _sums(self, x):
        A, b, a_sq = self._rows.A, self._rows.b, self._rows.a_sq
        excess = np.maximum(A @ x - b, 0.0)
        c = excess / a_sq
        return self._m * x - c @ A, float(excess.dot(c))

    def _dist(self, y):
        return math.sqrt(self._sums(y)[1])


class _RowSpace(_Halfspaces):
    """MAP and DRM on ``W ∩ D`` for a product of halfspaces, on points
    ``x = x_0 + A^T w`` kept as ``w in R^m``.

    Neither method moves ``x`` off ``x_0 + row(A)``: Cimmino's step moves it
    by ``-A^T c / m`` (see ``_Diagonal``) and a DRM step by ``A^T s / m``
    (below). With ``q = A x_0 - b``, taken once per run, ``A x - b = q + G w``
    for ``G = A A^T``. Where the normals are independent, ``G`` is
    ``ProductSet._gram``, and an iteration costs one product with the
    ``m x m`` matrix ``G`` instead of two or three with the ``m x n`` matrix
    ``A``, and matrix-vector products only. Where they are dependent, as more
    normals than dimensions always are, there is no ``G``, and DRM takes
    ``G v`` as ``A (A^T v)``, in O(m + n) memory besides ``A``.

    MAP goes from ``w`` to ``w - c / m``. Its measurement writes
    ``r = max(q + G w, 0)`` and ``c / m = r / (m ||a_i||^2)``, with that
    divisor also taken once per run, into the run's two m-vectors, so that an
    iteration allocates only the next ``w``; the gap is ``(m <r, c / m>)^(1/2)``.
    The ``c / m`` that a measurement returns is overwritten by the next
    measurement, after the step has used it. The run starts at ``w = 0``.
    A gap that is not finite has ``w`` checked for non-finite entries. MAP
    needs ``G``: with dependent normals ``w`` would drift in the null space
    of ``A^T``, and its stall rule, which compares ``w`` bitwise, would never
    fire.

    DRM iterates, the blocks ``z_i = x + s_i a_i``, are kept as ``(w, s, u)``
    with ``u = A x - b`` carried along, from ``(0, 0, q)``. With ``s / m``,
    ``d = A^T s / m`` and ``h = A d = G (s / m)``, the shadow, the block mean
    ``y = x + d``, is the point of ``w + s / m``, ``A y - b = u + h``, and
    ``m ||d||^2 = <s, h>``. The reflected blocks ``v_i = 2 y - z_i`` have
    ``a_i^T v_i - b_i = (u + 2 h)_i - s_i ||a_i||^2`` and project to
    ``v_i - c_i a_i`` with ``c_i = max(a_i^T v_i - b_i, 0) / ||a_i||^2``;
    with ``p = (u + 2 h) / ||a_i||^2``, ``r = s + c = max(p, s)``. The gap blocks ``y - P(v_i) = r_i a_i - d``
    give the squared gap ``<s, h> - 2 <r, h> + <r * r, ||a_i||^2>``, which is
    0 where it rounds below 0 and, as in R^(nm), inf where it overflows to
    NaN at a finite iterate; and the step ``z + P_W(v) - y`` goes to
    ``(w + s / m, s - r, u + h)``. ``u`` is a running sum, whose rounding
    grows by about ``2^-52`` of the scale of ``A x_0`` and ``b`` per step, so
    every ``floor(tol / (ROW_HEADROOM * scale))`` steps (``ROW_HEADROOM``) the
    step takes it afresh as ``q + G w``. A gap that is not finite has the
    iterate checked for non-finite entries, where the R^(nm) run checks the
    reflected point: any non-finite entry of ``s`` or ``h`` makes the gap
    non-finite.

    ``fits`` is false when the rounding of ``A x - b`` is not far below
    ``tol`` (``ROW_HEADROOM``): ``q`` rounds at 2^-53 of the scale of
    ``A x_0`` and ``b``, the scale that guard measures, and ``q + G w`` adds
    rounding of that size again; for MAP also when the normals are
    dependent. ``x_0`` can still be far larger than ``A x_0`` shows, and
    ``x_0 + A^T w`` then loses ``w``; so ``dist`` is the parent's ``_dist``
    at ``x`` itself, in closed form, for both methods, and ``lift`` maps
    ``w`` to the parent's ``lift`` of ``x``.
    """

    def __init__(self, W: ProductSet, x0: np.ndarray, tol: float, method: Method):
        super().__init__(W, method)
        rows, m = self._rows, W.m
        self._x0 = x0
        r0 = rows.A @ x0
        lost = ROW_HEADROOM * (abs(r0).max() + abs(rows.b).max())
        fits = lost < tol  # NaN fails the test
        self._G = W._gram if fits else None  # G is built only for a product that fits
        self.fits = fits and (self._G is not None or method is Method.DRM)
        # DRM steps from one fresh u to the next: at least 1 where the run fits
        self._every = np.floor(tol / lost) if lost else math.inf
        self._q = r0 - rows.b
        self._m_a_sq = m * rows.a_sq
        self._r, self._c = np.empty(m), np.empty(m)

    def start(self, w):
        if self._method is not Method.DRM:
            return w
        self._since = 0  # DRM steps since u was taken afresh
        return w, np.zeros(self._m), self._q

    def _measure_iterate(self, w):
        r = self._G.dot(w, out=self._r)  # np.matmul's bits, with less call overhead
        r += self._q
        np.maximum(r, 0.0, out=r)
        c = np.divide(r, self._m_a_sq, out=self._c)
        g = math.sqrt(self._m * r.dot(c))
        if not math.isfinite(g):  # where _Halfspaces checks x at every measurement
            _check_finite(w)
        return w, g, c

    def _times_gram(self, v):
        """``A A^T v``: one product with ``G``, or two with ``A`` without it."""
        G = self._G
        return G.dot(v) if G is not None else self._rows.A @ (v @ self._rows.A)

    def _measure_shadow(self, z):
        w, s, u = z
        a_sq = self._rows.a_sq
        s_m = s / self._m
        h = self._times_gram(s_m)
        p = u + h
        p += h
        p /= a_sq
        r = np.maximum(p, s, out=p)
        gg = s.dot(h) - 2.0 * r.dot(h) + (r * r).dot(a_sq)
        if not math.isfinite(gg):
            for v in z:
                _check_finite(v)
        g = 0.0 if gg < 0.0 else math.sqrt(gg) if gg == gg else math.inf
        return w + s_m, g, (h, r)

    def dist(self, w):
        return self._dist(self._point(w))

    def _map_step(self, w, y, g, c):
        return w - c

    def _drm_step(self, z, y, g, data):
        h, r = data  # y is the next w
        self._since += 1
        if self._since < self._every:
            u = z[2] + h
        else:
            self._since = 0
            u = self._times_gram(y)
            u += self._q
        return y, z[1] - r, u

    def _point(self, w):
        return self._x0 + w @ self._rows.A

    def lift(self, w):
        return super().lift(self._point(w))


def run_prod(W: ProductSet, z0, config: SolverConfig) -> IterationTrace:
    """Drive a product-space method from ``z0`` (projected onto ``D`` first).

    The steps are those of :func:`crmfeas.methods.run` with ``K := W`` and
    ``U := D``. CRM and MAP iterates stay in ``D``, so they run in R^n on the
    block mean ``x`` (Pierra's EPPM and Cimmino's method, see ``_Diagonal``),
    equal to the R^(nm) iteration up to rounding, and stop on
    ``||z - P_W(z)|| < tol``. DRM iterates leave ``D``: ``z`` of
    ``(z + R_W(R_D(z))) / 2``, whose reflections ``R_D(z)`` are the textbook
    DRM iterates, stopping on ``||P_D(z) - P_W(R_D(z))|| < tol``, which
    equals its fixed-point residual ``||z^(k+1) - z^k||``. They run as the
    two-set problem of :func:`crmfeas.methods.run` on ``W`` with its factors
    in group order (``ProductSet._inner``) and ``D``, the R^(nm) iteration
    with its blocks permuted, from ``lift`` of the mean of ``z0``'s blocks,
    which holds about seven points of R^(nm) at once. When every factor of
    ``W`` is a ``Halfspace`` (exactly that class) and the largest entries of
    ``A x_0`` and ``b``, with ``x_0`` the block mean of ``z0``, add up to
    less than ``tol / ROW_HEADROOM``, DRM, and MAP when the ``m`` normals are
    independent (so ``m <= n``), run on ``w in R^m`` with ``x = x_0 + A^T w``
    instead (see ``_RowSpace``; DRM as ``(w, s, u)``), again equal up to
    rounding, in O(m + n) memory besides ``A``, ``A A^T`` and ``final_point``;
    other MAP and CRM runs on halfspaces take their sums in closed form
    (``_Halfspaces``).
    ``final_point`` is the point of R^(nm) on the diagonal where the last gap
    was measured: ``lift(x)`` for CRM and MAP, the shadow ``P_D(z)`` for DRM.
    """
    if not isinstance(W, ProductSet):
        raise ValueError(f"W must be a ProductSet, not {type(W).__name__}")
    z0 = as_point(z0, W.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a Status
        return _drive(*_prod_problem(W, z0, config), config)


def _prod_problem(W: ProductSet, z0: np.ndarray, config: SolverConfig):
    """The problem that ``run_prod`` drives from the checked start ``z0``, and
    that start as a point the problem tracks (see ``_drive``): ``w = 0`` on
    the row space, else the block mean of ``z0``, lifted for DRM; to be
    called, as ``run_prod`` does, with overflow ignored."""
    x = z0.reshape(W.m, W.block_dim).mean(axis=0)
    if W._halfspaces is not None and config.method is not Method.CRM and (
            rows := _RowSpace(W, x, config.tol, config.method)).fits:
        return rows, np.zeros(W.m)
    if config.method is Method.DRM:
        D = DiagonalSubspace(W.block_dim, W.m)
        return _TwoSets(W._inner or W, D, config.method), np.tile(x, W.m)
    return (_Diagonal if W._halfspaces is None else _Halfspaces)(W, config.method), x
