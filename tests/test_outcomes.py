"""Outcome table: how each hard problem ends, pinned as the golden table pins
the grids.

Each row of ``tests/data/outcomes.csv`` names a problem of ``PROBLEMS``, an
entry point, a method and an iteration cap, and pins the run's
``(status, iterations)``. The entry points are ``run`` for a two-set problem
``K ∩ U``, ``run_prod`` for a product ``W``, and ``reference``, the R^(nm)
run ``run(W, DiagonalSubspace(n, m))`` that ``run_prod`` should retrace. A
row whose outcome is wrong names in ``known_fault`` the CHANGES.md line
(``FOUND: <file> <name>``) that records the fault; a change that alters a
row explains it there. A cap below the default is used only on a run that
reached the default cap too when the table was made: an empty problem that
DRM or CRM never leaves, an iterate that repeats far out, or MAP's slow
linear descent from 1e154. Such a row keeps its outcome at a fraction of
its time.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from crmfeas.methods import Method, SolverConfig, run
from crmfeas.product_space import DiagonalSubspace, ProductSet, lift, run_prod
from crmfeas.sets import AffineSubspace, Ball, Box, Halfspace, SecondOrderCone

OUTCOMES = Path(__file__).parent / "data" / "outcomes.csv"
COLUMNS = ["problem", "entry", "method", "max_iter", "status", "iterations", "known_fault"]

_RAY = np.array([1.0, 0.3, -0.2, 0.1, 0.4, -0.5])
_A6 = np.random.default_rng(5).standard_normal((4, 6))
_U6 = AffineSubspace(_A6, _A6 @ [3.0, 1.0, 0.5, -1.0, 0.2, 0.3])  # rank 4 > n/2
_FAR = 1e100 * np.array([0.3, 2.0, 1.0])

# name -> (K, U, z0) of a two-set problem, or (W, None, z0) of a product
PROBLEMS = {
    # empty: the ball lies below the line, and H_z is parallel to U
    "ball-parallel": (Ball([0.0, 0.0], 1.0), AffineSubspace([[0.0, 1.0]], [3.0]),
                      [0.0, 3.0]),
    "ball-line": (Ball([0.0, 0.0], 1.0), AffineSubspace([[1.0, 1.0]], [10.0]), [10.0, 0.0]),
    "ball-plane": (Ball([0.0, 0.0, 0.0], 1.0), AffineSubspace([[1.0, 1.0, 0.0]], [10.0]),
                   [10.0, 0.0, 3.0]),
    "disjoint-balls": (ProductSet([Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)]), None,
                       lift([0.3, 1.3], 2)),
    "opposite-halfspaces": (ProductSet([Halfspace([1.0, 0.0], -1.0),
                                        Halfspace([-1.0, 0.0], -1.0)]), None,
                            lift([0.3, 0.5], 2)),
    "ball-far-box": (ProductSet([Ball([0.0, 0.0], 1.0), Box([10.0, -1.0], [12.0, 1.0])]),
                     None, lift([0.3, 0.5], 2)),
    # nonempty ({x1 <= -1e-3 |x2|}), from far out
    "far-halfspaces": (ProductSet([Halfspace([1.0, 1e-3], 0.0), Halfspace([-1.0, 1e-3], 0.0)]),
                       None, lift([1e200, 0.5], 2)),
    # empty, and far out: P_U cancels x_p in R^n at this scale
    "cone-apex-far": (SecondOrderCone(3), AffineSubspace([[1.0, 0.0, 0.0]], [-1.0]), _FAR),
    # nonempty cone in R^6 from starts near 1e154 along one ray
    "cone-1e154": (SecondOrderCone(6), _U6, 1e154 * _RAY),
    "cone-minus-1e154": (SecondOrderCone(6), _U6, -1e154 * _RAY),
    # nonempty; the Cimmino iterate stops at a point of both halfspaces
    "halfspaces-1e154": (ProductSet([Halfspace([1.0, 0.0], 0.0), Halfspace([1.0, 1.0], 0.0)]),
                         None, lift([1e154, 1e154], 2)),
    # the block mean of the start overflows
    "ball-halfspace-1e308": (ProductSet([Ball([0.0, 0.0], 1.0), Halfspace([0.0, 1.0], 0.5)]),
                             None, lift([1e308, 0.5], 2)),
    "ball-halfspace-minus-1e308": (ProductSet([Ball([0.0, 0.0], 1.0),
                                               Halfspace([0.0, 1.0], 0.5)]), None,
                                   lift([-1e308, 0.5], 2)),
    # the intersection is the one point [0, 0]
    "tangent-balls": (ProductSet([Ball([-1.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)]), None,
                      lift([0.0, 2.0], 2)),
}


def replay(problem, entry, method, max_iter):
    """``(status, iterations)`` of one row's run."""
    K, U, z0 = PROBLEMS[problem]
    cfg = SolverConfig(method=Method(method), max_iter=max_iter)
    if entry == "run":
        trace = run(K, U, z0, cfg)
    elif entry == "run_prod":
        trace = run_prod(K, z0, cfg)
    else:
        trace = run(K, DiagonalSubspace(K.block_dim, K.m), z0, cfg)
    return trace.status.value, trace.iterations


def _rows():
    with open(OUTCOMES, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("row", _rows(), ids=lambda r: f"{r['problem']}-{r['entry']}-{r['method']}")
def test_each_hard_problem_ends_as_pinned(row):
    got = replay(row["problem"], row["entry"], row["method"], int(row["max_iter"]))
    assert got == (row["status"], int(row["iterations"]))


def test_the_table_covers_every_problem_and_names_its_faults():
    rows = _rows()
    assert list(rows[0]) == COLUMNS
    assert {r["problem"] for r in rows} == set(PROBLEMS)
    changes = (Path(__file__).parent.parent / "CHANGES.md").read_text(encoding="utf-8")
    for r in rows:
        assert not r["known_fault"] or f"FOUND: {r['known_fault']}" in changes, r
