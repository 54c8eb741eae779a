"""Constrained states of a fourth-order matter-potential system on boxes.

The model couples a Schrodinger-type equation for an amplitude u with a
fourth-order equation for an electrostatic-type potential phi on a box,
through a spatially varying coupling factor q and inhomogeneous Neumann flux
data for the potential.  The package eliminates phi: an auxiliary field chi
absorbs the boundary data, a linear solve maps q u^2 to the zero-mean
potential it generates, and the remaining energy J(u) is minimized over the
manifold of fields with unit mass and prescribed coupling mass by projected
gradient descent with a two-parameter retraction.

Layout: ``grid`` holds the finite-difference kernels and quadrature whose
summation-by-parts pairing makes the discrete energy identities exact;
``solvers`` the exact DCT-I/DST-I elliptic solves; ``dense`` small
assembled-matrix oracles; ``problem`` the coupling families, feasibility
classification, and chi; ``reduction`` the potential map; ``functional`` the
reduced energy and its gradient; ``manifold`` constraints, retraction, and
seed construction; ``optimize`` the descent loop and multi-start driver;
``verify`` residuals against the original strong system; ``config``/``cli``
the batch front end.
"""

from .config import RunConfig, load_config, parse_config_text
from .errors import (
    ConfigError,
    ConsistencyViolation,
    DegenerateConstraints,
    DegenerateDirection,
    IncompatibleData,
    InfeasibleRegion,
    LineSearchStall,
    NewtonDivergence,
    NoConvergence,
    NonzeroBoundary,
    OracleTooLarge,
    SbpError,
    SingularMultiplierSystem,
    SlabInfeasible,
    ZeroField,
)
from .functional import (
    EnergyBreakdown,
    eval_F,
    eval_J,
    gn_exponent_window,
    gn_ratio,
    grad_J,
)
from .grid import (
    BoundaryData,
    Grid,
    boundary_integrate,
    dirichlet_energy,
    dirichlet_inner,
    inner,
    integrate,
    laplacian_dirichlet,
    laplacian_neumann,
    mean,
    norm_l2,
    read_field,
    write_field,
)
from .manifold import (
    constraint_values,
    feasible_init,
    genus_seeds,
    retract,
    sphere_samples,
    tangent_project,
)
from .optimize import (
    IterRecord,
    OptimizerOptions,
    SolveResult,
    excited_states,
    minimize_on_M,
    polish_positive,
    recover_multipliers,
)
from .problem import (
    CouplingSpec,
    FeasibilityReport,
    Problem,
    build_problem,
    classify_alpha,
    compute_alpha,
    fourth_order_chi_residual,
    solve_chi,
)
from .reduction import (
    PotentialPair,
    biharmonic_form,
    interaction_energy,
    phi_map,
    solve_fourth_order_split,
)
from .solvers import (
    solve_helmholtz_neumann,
    solve_poisson_dirichlet,
    solve_poisson_neumann_zeromean,
)
from .verify import (
    DenseOracleReport,
    RefinementStudy,
    ResidualReport,
    dense_kkt_polish,
    dense_oracle_compare,
    reconstruct_phi,
    refinement_study,
    residual_original_system,
    write_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "ConfigError",
    "ConsistencyViolation",
    "CouplingSpec",
    "DegenerateConstraints",
    "DegenerateDirection",
    "DenseOracleReport",
    "EnergyBreakdown",
    "FeasibilityReport",
    "Grid",
    "IncompatibleData",
    "InfeasibleRegion",
    "IterRecord",
    "LineSearchStall",
    "NewtonDivergence",
    "NoConvergence",
    "NonzeroBoundary",
    "OptimizerOptions",
    "OracleTooLarge",
    "PotentialPair",
    "Problem",
    "RefinementStudy",
    "ResidualReport",
    "RunConfig",
    "SbpError",
    "SingularMultiplierSystem",
    "SlabInfeasible",
    "SolveResult",
    "ZeroField",
    "biharmonic_form",
    "boundary_integrate",
    "build_problem",
    "classify_alpha",
    "compute_alpha",
    "fourth_order_chi_residual",
    "constraint_values",
    "dense_kkt_polish",
    "dense_oracle_compare",
    "dirichlet_energy",
    "dirichlet_inner",
    "eval_F",
    "eval_J",
    "gn_exponent_window",
    "gn_ratio",
    "excited_states",
    "feasible_init",
    "genus_seeds",
    "grad_J",
    "inner",
    "integrate",
    "interaction_energy",
    "laplacian_dirichlet",
    "laplacian_neumann",
    "load_config",
    "mean",
    "minimize_on_M",
    "norm_l2",
    "parse_config_text",
    "phi_map",
    "polish_positive",
    "read_field",
    "reconstruct_phi",
    "recover_multipliers",
    "refinement_study",
    "residual_original_system",
    "retract",
    "solve_chi",
    "solve_fourth_order_split",
    "solve_helmholtz_neumann",
    "solve_poisson_dirichlet",
    "solve_poisson_neumann_zeromean",
    "sphere_samples",
    "tangent_project",
    "write_field",
    "write_summary",
]
