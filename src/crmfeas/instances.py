"""Seeded random generators for the two experiment families, plus problem files.

Two kinds of feasibility problems are produced:

* ``affine_conic`` — find a point of the second-order cone ``C_n`` satisfying
  a random consistent system ``A x = b`` (``A`` standard normal, ``m`` rows
  with ``m`` uniform in ``{1, ..., n-1}``, ``b := A x̄`` for a certificate
  ``x̄`` drawn strictly inside the cone);
* ``polyhedral`` — a random intersection of ``m`` halfspaces built around a
  standard-normal certificate ``x̄``, with a uniformly chosen subset of the
  constraints slackened by ``||b̄|| * r`` (``r`` uniform in (0,1)) so the
  polyhedron has interior.

Determinism contract: all draws come from ``numpy.random.Generator`` seeded
with PCG64 (``numpy.random.default_rng``); normals use NumPy's ziggurat
sampler. The order of draws inside each generator is part of the contract and
must not change. Seeds for whole experiment grids are derived per
(instance, start) pair with :func:`derive_seed`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np
from numpy import linalg as la

from .errors import (
    BadDimension,
    DimensionMismatch,
    ExhaustedRejection,
    ParseError,
    SchemaVersionMismatch,
)
from .product_space import ProductSet, lift
from .sets import (
    AffineSubspace,
    ConvexSet,
    Halfspace,
    SecondOrderCone,
    as_point,
    set_from_dict,
    set_to_dict,
)

__all__ = [
    "Kind",
    "ProblemInstance",
    "StartPoint",
    "derive_seed",
    "gen_soc_instance",
    "gen_polyhedral_instance",
    "gen_start",
    "write_problem",
    "read_problem",
]

SCHEMA_VERSION = 1
CERTIFICATE_TOL = 1e-8


class Kind(str, enum.Enum):
    AFFINE_CONIC = "affine_conic"
    POLYHEDRAL = "polyhedral"


@dataclass
class ProblemInstance:
    """A feasibility problem with a known-feasible certificate point.

    ``sets`` always holds the convex sets; for ``affine_conic`` problems the
    affine part is kept separately in ``affine`` (it plays the role of the
    subspace ``U`` of the two-set solvers). Construction raises
    ``ValueError`` unless every set and the affine part have dimension ``n``,
    a polyhedral problem has no affine part and ``m`` sets, and the
    certificate, when given, lies in every set and in the affine part.
    """

    kind: Kind
    sets: list[ConvexSet]
    affine: AffineSubspace | None
    n: int
    m: int
    seed: int
    certificate: np.ndarray | None

    def __post_init__(self):
        self.kind = Kind(self.kind)
        if self.kind is Kind.AFFINE_CONIC:
            if self.affine is None:
                raise ValueError("affine_conic instance needs its affine part")
            if len(self.sets) != 1 or not isinstance(self.sets[0], SecondOrderCone):
                raise ValueError("affine_conic instance needs sets == [SecondOrderCone]")
        else:
            if self.affine is not None:
                raise ValueError("polyhedral instance has no affine part")
            if self.m != len(self.sets):
                raise ValueError(f"polyhedral instance has m = {self.m} but "
                                 f"{len(self.sets)} sets")
        parts = self.sets if self.affine is None else [*self.sets, self.affine]
        for s in parts:
            if s.dim != self.n:
                raise ValueError(f"{type(s).__name__} of dimension {s.dim} in a problem "
                                 f"of dimension n = {self.n}")
        if self.certificate is not None:
            self.certificate = as_point(self.certificate, self.n)
            if not all(s.contains(self.certificate, CERTIFICATE_TOL) for s in parts):
                raise ValueError("certificate violates a set or the affine part beyond 1e-8")


@dataclass
class StartPoint:
    """A rejected-until-infeasible starting point and its projected companion.

    ``raw`` has norm in [5, 15]; ``projected`` lies on the affine subspace
    (affine_conic) or is the diagonal lift (polyhedral, for product-space
    runs).
    """

    raw: np.ndarray
    projected: np.ndarray
    seed: int


def derive_seed(base_seed: int, *path: int) -> int:
    """Portable 64-bit seed for the stream identified by ``path``.

    Built by feeding ``(base_seed, *path)`` to ``numpy.random.SeedSequence``,
    so disjoint paths give statistically independent streams and the mapping
    is stable across platforms.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def gen_soc_instance(n: int, seed: int) -> ProblemInstance:
    """Random consistent cone-and-affine instance in dimension ``n >= 2``.

    Draw order (frozen): row count ``m`` uniform in ``{1, ..., n-1}``, the
    ``m x n`` matrix ``A`` (standard normal, row major), then the certificate
    ``x̄ = (t, u)`` with ``u = 0.03 * N(0, I)`` in ``R^(n-1)`` and
    ``t = ||u|| + 0.01 + 0.02 * |g|`` for one more standard-normal ``g``.
    Finally ``b := A x̄``.

    The certificate sits near the cone apex with a small cone-margin bounded
    away from zero: the intersection is then small relative to the [5, 15]
    starting distance, which is the hard-but-feasible regime (alternating
    projections show heavy-tailed iteration counts there), while the margin
    floor keeps a strictly interior point so no instance is tangent. A margin
    proportional to ``||u||`` would instead grow like sqrt(n) and make starts
    projected onto high-codimension subspaces land inside the cone almost
    surely, so no infeasible start could be drawn.
    """
    if n < 2:
        raise BadDimension("affine_conic instances need n >= 2")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    A = rng.standard_normal((m, n))
    u = 0.03 * rng.standard_normal(n - 1)
    g = float(rng.standard_normal())
    t = float(la.norm(u)) + 0.01 + 0.02 * abs(g)
    certificate = np.concatenate([[t], u])
    b = A @ certificate
    return ProblemInstance(
        kind=Kind.AFFINE_CONIC,
        sets=[SecondOrderCone(n)],
        affine=AffineSubspace(A, b),
        n=n,
        m=m,
        seed=int(seed),
        certificate=certificate,
    )


def gen_polyhedral_instance(n: int, seed: int) -> ProblemInstance:
    """Random nonempty intersection of ``m`` halfspaces in dimension ``n >= 2``.

    Draw order (frozen): ``m`` uniform in ``{1, ..., n-1}``, normals
    ``a_1..a_m`` (standard normal, row major), certificate ``x̄`` (standard
    normal), slack-set size ``p`` uniform in ``{1, ..., m}``, the ``p`` slack
    indices without replacement, then ``r`` uniform in (0, 1). Offsets are
    ``b_i = a_i^T x̄``, increased by ``||b̄|| * r`` on the slack indices, so
    the certificate satisfies those constraints strictly.
    """
    if n < 2:
        raise BadDimension("polyhedral instances need n >= 2")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    A = rng.standard_normal((m, n))
    certificate = rng.standard_normal(n)
    b_bar = A @ certificate
    p = int(rng.integers(1, m + 1))
    slack = rng.choice(m, size=p, replace=False)
    r = float(rng.uniform())
    while r == 0.0:  # open interval (0, 1)
        r = float(rng.uniform())
    b = b_bar.copy()
    b[slack] += float(la.norm(b_bar)) * r
    return ProblemInstance(
        kind=Kind.POLYHEDRAL,
        sets=[Halfspace(A[i], b[i]) for i in range(m)],
        affine=None,
        n=n,
        m=m,
        seed=int(seed),
        certificate=certificate,
    )


def gen_start(instance: ProblemInstance, seed: int, min_gap: float = 1e-6) -> StartPoint:
    """Random infeasible start for ``instance``, deterministic in ``seed``.

    Each attempt draws a standard-normal direction and rescales it by a
    uniform factor so the raw norm lands in [5, 15]. The draw is rejected if
    the raw point already solves the problem (membership within 1e-9) or if
    the projected start has feasibility gap at most ``min_gap``; after 1000
    rejections ``ExhaustedRejection`` is raised.
    """
    rng = np.random.default_rng(seed)
    n, affine = instance.n, instance.affine
    # the sets before the affine part, whose test projects onto it
    parts = instance.sets if affine is None else [*instance.sets, affine]
    K = ProductSet(instance.sets) if affine is None else instance.sets[0]
    for _ in range(1000):
        x = rng.standard_normal(n)
        scale = float(rng.uniform(5.0, 15.0))
        nx = float(la.norm(x))
        if nx == 0.0:
            continue
        raw = (scale / nx) * x
        if all(s.contains(raw, 1e-9) for s in parts):
            continue
        projected = lift(raw, instance.m) if affine is None else affine.project(raw)
        if float(la.norm(projected - K.project(projected))) <= min_gap:
            continue
        return StartPoint(raw=raw, projected=projected, seed=int(seed))
    raise ExhaustedRejection("could not draw an infeasible start in 1000 attempts")


# --- problem files ----------------------------------------------------------

def write_problem(instance: ProblemInstance, path) -> None:
    """Write ``instance`` as versioned JSON; numbers keep full precision."""
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": instance.kind.value,
        "n": instance.n,
        "m": instance.m,
        "seed": instance.seed,
        "sets": [set_to_dict(s) for s in instance.sets],
        # the affine part is always an affine subspace, so its object has no "type"
        "affine": None if instance.affine is None
        else {k: v for k, v in set_to_dict(instance.affine).items() if k != "type"},
        "certificate": None
        if instance.certificate is None
        else instance.certificate.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def _field(doc: dict, name: str):
    if name not in doc:
        raise ParseError(f"problem file missing field {name!r}")
    return doc[name]


def _int_field(doc: dict, name: str) -> int:
    value = _field(doc, name)
    if type(value) is not int:  # a JSON true or false reads as a bool, an int subclass
        raise ParseError(f"field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def read_problem(path) -> ProblemInstance:
    """Read a problem file written by :func:`write_problem`.

    Raises ``ParseError`` for malformed content and ``SchemaVersionMismatch``
    for an unsupported ``schema`` field. The round trip
    ``read_problem(write_problem(x))`` reproduces ``x`` exactly.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"problem file is not UTF-8: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must contain a JSON object")
    schema = _field(doc, "schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"unsupported schema version {schema!r}")

    kind_raw = _field(doc, "kind")
    try:
        kind = Kind(kind_raw)
    except ValueError as exc:
        raise ParseError(f"unknown problem kind {kind_raw!r}") from exc
    sets_raw = _field(doc, "sets")
    if not isinstance(sets_raw, list):
        raise ParseError("field 'sets' must be a list")
    sets = [set_from_dict(d) for d in sets_raw]

    affine_raw = doc.get("affine")
    if affine_raw is not None and not isinstance(affine_raw, dict):
        raise ParseError("field 'affine' must be an object")
    affine = None if affine_raw is None else set_from_dict({**affine_raw, "type": "affine"})

    n, m, seed = (_int_field(doc, name) for name in ("n", "m", "seed"))
    cert = doc.get("certificate")
    try:
        return ProblemInstance(
            kind=kind,
            sets=sets,
            affine=affine,
            n=n,
            m=m,
            seed=seed,
            certificate=None if cert is None else np.asarray(cert, dtype=float),
        )
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"inconsistent problem file: {exc}") from exc
