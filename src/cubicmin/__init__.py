"""Certified global minimization of cubic-regularized quadratic models.

The model is m(s) = c's + s'Qs/2 + (sigma/3)||s||^3.  The package
enumerates its stationary points through a scalar secular equation,
certifies global minimizers, escapes non-global stationary points with
closed-form moves, and wraps both tricks in an adaptive outer optimizer
for general smooth objectives.
"""

from .exceptions import (
    BoundExceeded,
    CertificateFailure,
    ConvergenceError,
    CubicminError,
    EmptyInput,
    NonNegativeCurvature,
    NormMismatch,
    NotStationary,
    PoleEvaluation,
    SchemaError,
    ThresholdNotMet,
    ToleranceFloor,
)
from .linalg import EigenDecomposition, SymmetricMatrix, sym_eigen
from .model import (
    CubicModel,
    GlobalCertificate,
    StationaryPoint,
    eval_model,
    grad,
    hess,
    is_global,
)
from .stationary import (
    GlobalSolution,
    LambdaRoot,
    SecularProblem,
    count_bound,
    enumerate_lambda,
    enumerate_stationary,
    g_eval,
    global_minimize,
    stationary_from_lambda,
    subintervals,
)
from .escape import (
    ApproxTolerances,
    EscapeOutcome,
    alpha_threshold_biii,
    escape_approx,
    escape_exact,
)
from .local_solver import LocalSolveReport, local_minimize
from .driver import (
    ARC,
    ARC_PLUS,
    ArcOptions,
    OuterReport,
    ProfileTable,
    SubproblemTrace,
    arc_plus_minimize,
    cauchy_step,
    performance_profile,
    solve_via_escapes,
)
from .problems import (
    ObjectiveFunction,
    available_problems,
    cubic_objective,
    get_problem,
    random_cubic_objective,
)
from .problem_io import load_problem, parse_problem, problem_to_dict, save_problem

__version__ = "0.1.0"


def kernel_backend():
    """Which eigensolver kernel is active; always "lapack" (NumPy's LAPACK)."""
    return "lapack"


__all__ = [
    "ARC",
    "ARC_PLUS",
    "ApproxTolerances",
    "ArcOptions",
    "BoundExceeded",
    "CertificateFailure",
    "ConvergenceError",
    "CubicminError",
    "CubicModel",
    "EigenDecomposition",
    "EmptyInput",
    "EscapeOutcome",
    "GlobalCertificate",
    "GlobalSolution",
    "LambdaRoot",
    "LocalSolveReport",
    "NonNegativeCurvature",
    "NormMismatch",
    "NotStationary",
    "ObjectiveFunction",
    "OuterReport",
    "PoleEvaluation",
    "ProfileTable",
    "SchemaError",
    "SecularProblem",
    "StationaryPoint",
    "SubproblemTrace",
    "SymmetricMatrix",
    "ThresholdNotMet",
    "ToleranceFloor",
    "alpha_threshold_biii",
    "arc_plus_minimize",
    "available_problems",
    "cauchy_step",
    "count_bound",
    "cubic_objective",
    "enumerate_lambda",
    "enumerate_stationary",
    "escape_approx",
    "escape_exact",
    "eval_model",
    "g_eval",
    "get_problem",
    "global_minimize",
    "grad",
    "hess",
    "is_global",
    "kernel_backend",
    "load_problem",
    "local_minimize",
    "parse_problem",
    "performance_profile",
    "problem_to_dict",
    "random_cubic_objective",
    "save_problem",
    "solve_via_escapes",
    "stationary_from_lambda",
    "subintervals",
    "sym_eigen",
    "__version__",
]
