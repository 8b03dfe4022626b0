"""Convex-feasibility solvers built around the circumcentered-reflection method.

The library solves ``find x in X_1 ∩ ... ∩ X_m`` for closed convex sets with
exact projectors. Two-set problems (a convex set and an affine subspace) are
handled directly by CRM, MAP and DRM; general intersections go through the
product-space reformulation, where CRM converges globally from any diagonal
start.
"""

from .errors import (
    BadDimension,
    DegenerateConfiguration,
    DimensionMismatch,
    EmptyInput,
    ExhaustedRejection,
    FeasibilityError,
    NotDiagonal,
    NotInAffine,
    ParseError,
    SchemaVersionMismatch,
)
from .sets import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
    as_point,
    set_from_dict,
    set_to_dict,
)
from .circumcenter import CircumcenterResult, circumcenter
from .methods import (
    IterationTrace,
    Method,
    SolverConfig,
    Status,
    crm_step,
    run,
)
from .product_space import (
    DiagonalSubspace,
    ProductSet,
    crm_prod_step,
    lift,
    restrict,
    run_prod,
)
from .instances import (
    Kind,
    ProblemInstance,
    StartPoint,
    derive_seed,
    gen_polyhedral_instance,
    gen_soc_instance,
    gen_start,
    read_problem,
    write_problem,
)
from .bench import (
    BenchResult,
    ProfileCurve,
    RunRecord,
    RunStats,
    bench_polyhedral_prod,
    bench_soc,
    performance_profile,
    summarize,
)

__version__ = "0.1.0"
