"""Discrete calculus on finite graphs with boundary.

Difference operators, Green identities, isoperimetric and Poincare
constants, spectra of -laplacian + potential with certified bounds, heat
kernels and Green functions, a constructive minimax finder, transport and
implicit-flow solvers, and harmonic maps into the unit sphere.  Everything
is exact-arithmetic-friendly and deterministic so that results can be
checked against independent oracles.
"""

__version__ = "0.1.0"

from .errors import (
    AntipodalPointsError,
    DanglingEndpointError,
    DisconnectedInteriorError,
    DomainError,
    DuplicateEdgeError,
    GraphCalcError,
    GraphFormatError,
    GraphParseError,
    IndefiniteStepError,
    NonpositiveSpectrumError,
    NotAdjacentError,
    NumericalError,
    SelfLoopError,
    UnknownVertexError,
    ValidationError,
)
from .rng import Lcg64
from .graph import (
    Graph,
    SubgraphWindow,
    VertexFunction,
    build_window,
    graph_distance,
    monge_cost,
    volume,
)
from .calculus import (
    ALLOWED_SCALES,
    DEFAULT_CONFIG,
    CalculusConfig,
    GreenSymmetricReport,
    GreenVectorFieldReport,
    HessianMatrix,
    MaximumPrincipleReport,
    VectorField,
    canonical_window,
    closure_energy,
    dirichlet_energy,
    directional_derivative,
    divergence,
    divergence_theorem_residual,
    edge_difference,
    gradient,
    gradient_field,
    gradient_norm_sq,
    green_symmetric_report,
    green_vectorfield_report,
    hessian,
    integrate,
    is_local_max,
    is_local_min,
    laplacian,
    maximum_principle_check,
    pointwise_product,
    random_antisymmetric_field,
    random_function,
    run_identity_suite,
    scalar_product,
    weighted_inner,
    weighted_norm_sq,
)
from .jacobi import jacobi_eigh, sorted_eigh
from .spectral import (
    CourantFischerReport,
    EigenSystem,
    GreenFunction,
    HeatKernel,
    OperatorSpec,
    apply_operator,
    barta_bound,
    courant_fischer_check,
    eigensystem,
    green_function,
    heat_kernel,
    heat_kernel_eval,
    rayleigh_quotient,
    symmetric_matrix,
)
from .constants import (
    ENUMERATION_VERTEX_CAP,
    CutReport,
    cheeger_constants,
    cheeger_functional,
    cheeger_g,
    cheeger_h,
    cut_report,
    poincare_dirichlet_constant,
    poincare_neumann_constant,
    weighted_median,
)
from .minimax import (
    NEIGHBORHOOD_CAP,
    MinimaxSearchResult,
    MinimaxWitness,
    VertexClassification,
    bottleneck_level,
    classify_vertex,
    find_minimax,
    is_coercive_on_window,
)
from .evolution import (
    IDENTITY_MAX_STEP,
    SOLVE_RESIDUAL_TOL,
    ConvergenceReport,
    DMFRun,
    DMFStepReport,
    HeatIdentitiesReport,
    Trajectory,
    dmf_convergence_study,
    dmf_run,
    dmf_step,
    heat_identities_report,
    spectral_heat_solve,
    transport_mass_rate,
    transport_solve,
)
from .harmonic import (
    AmbientTensionReport,
    FlowResult,
    MinimizeResult,
    SphereMap,
    SpherePoint,
    ambient_tension_report,
    check_no_antipodal_edges,
    dirichlet_minimize,
    energy_density,
    first_variation,
    harmonic_heat_flow,
    map_energy,
    random_rotation,
    rotate_map,
    sphere_distance,
    sphere_exp,
    sphere_log,
)
from .io import (
    format_float,
    load_graph,
    load_vertex_function,
    parse_graph,
    parse_sphere_map,
    parse_vector_field,
    parse_vertex_function,
    render_sphere_map_csv,
    render_trajectory_csv,
    render_vertex_function_csv,
    write_graph,
)
