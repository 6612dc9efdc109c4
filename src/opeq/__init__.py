"""Certified solvers for operator equations over finite Hilbert C*-modules.

Covers A X = C (reduced solution and majorization factor), A X + Y B = C
(diagnosis, particular and general solutions), A X + B Y = C (reduced
solution on [A B]), the congruence equations A X A* + B Y B* = 0 / = C,
range intersections through kernel projections, and A X A* + B Y B* = C Z.
Every answer ships with a machine-checkable certificate of residuals.
"""

from .congruence import (
    CongruenceDiagnosis,
    CzReport,
    IntersectionReport,
    diagnose_congruence,
    homogeneous_congruence,
    range_intersection,
    solve_congruence,
    solve_congruence_cz,
)
from .douglas import (
    ReducedSolutionReport,
    douglas_factor,
    polar_range_check,
    reduced_solution,
    solve_scaled_equality,
)
from .exceptions import (
    ContextMismatch,
    DimensionMismatch,
    EmptyIntersection,
    EmptyMatrix,
    HypothesisViolated,
    InfeasibleSpec,
    IntersectionNotInRangeC,
    InvalidMatrix,
    MissingMatrix,
    NotASolution,
    NotPSD,
    NotSolvable,
    OpeqError,
    ParseError,
    RangeNotContained,
    ShapeError,
    ToleranceAnomaly,
    UnknownEquationTag,
)
from .harness import (Certificate, CompletenessReport, InstanceSpec, NecessityReport, completeness_witness,
                      generate, random_unitary, ranked_matrix, solvability_necessity_check, verify)
from .kernel import (
    DEFAULT_TOL,
    Factorization,
    ToleranceConfig,
    as_matrix,
    factor,
    pinv,
    psd_sqrt,
    svd,
)
from .matrixio import load_matrix, load_matrix_meta, save_matrix
from .modules import (
    AlgebraElement,
    LinearityReport,
    ModuleContext,
    ModuleElement,
    ModuleOperator,
    adjoint,
    check_module_linearity,
    inner_product,
    modulus,
    right_action,
)
from .projections import (
    ProjectionQuad,
    RangeDecision,
    numerical_rank,
    projection_quad,
    range_equal,
    range_inclusion,
)
from .rng import Xoshiro256StarStar, complex_normal_matrix
from .sylvester import (
    SylvesterDiagnosis,
    SylvesterSolution,
    diagnose_ax_yb,
    homogeneous_ax_yb,
    particular_ax_yb,
    random_params,
    solve_ax_by_orthogonal,
    solve_ax_yb,
)

__version__ = "0.1.0"
