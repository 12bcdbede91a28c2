"""Finite element solver for Herschel-Bulkley pipe flow.

Minimizes the Huber-regularized p-Laplacian functional with an L1 gradient
plasticity term over P1 elements, using preconditioned descent with a
polynomial-model backtracking line search and optional regularization
continuation.
"""

from .assembly import (
    assemble_load_vector,
    assemble_weighted_stiffness,
    build_discrete_gradient,
    expand_dirichlet,
    gradient_magnitudes,
)
from .huber import (
    DualField,
    HuberParams,
    dual_field,
    evaluate_gradient,
    evaluate_objective,
)
from .linalg import LinearSolveError, SpdSolveReport, solve_spd
from .linesearch import (
    LineSearchConfig,
    LineSearchError,
    LineSearchResult,
    backtracking_search,
    cubic_step,
    quadratic_step,
)
from .mesh import (
    Mesh,
    MeshError,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    make_mesh,
)
from .solver import (
    IterationRecord,
    LinearConfig,
    SolveOutcome,
    SolverConfig,
    continuation_solve,
    solve,
    wp_seminorm,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "MeshError",
    "build_unit_square_mesh",
    "build_unit_disk_mesh",
    "make_mesh",
    "build_discrete_gradient",
    "gradient_magnitudes",
    "assemble_weighted_stiffness",
    "assemble_load_vector",
    "expand_dirichlet",
    "HuberParams",
    "evaluate_objective",
    "evaluate_gradient",
    "DualField",
    "dual_field",
    "LineSearchConfig",
    "LineSearchResult",
    "LineSearchError",
    "quadratic_step",
    "cubic_step",
    "backtracking_search",
    "solve_spd",
    "SpdSolveReport",
    "LinearSolveError",
    "SolverConfig",
    "LinearConfig",
    "IterationRecord",
    "SolveOutcome",
    "solve",
    "continuation_solve",
    "wp_seminorm",
    "__version__",
]
