"""Discrete calculus on finite graphs with boundary.

Difference operators, Green identities, isoperimetric and Poincare
constants, spectra of -laplacian + potential with certified bounds, heat
kernels and Green functions, a constructive minimax finder, transport and
implicit-flow solvers, and harmonic maps into the unit sphere.  Everything
is exact-arithmetic-friendly and deterministic so that results can be
checked against independent oracles.

Importing the package runs none of its modules.  Each submodule is
registered in sys.modules and runs on first use: an attribute of it, or a
name of the package that it owns (`graphcalc.eigensystem` runs `spectral`).
`import graphcalc.spectral` runs it at once, and an error inside a module
surfaces where it is first used.  Submodules run under one lock, so
threads that first use one at once wait for its whole run.  `graphcalc.cli`
is not registered: the import system loads it as usual, also as
`python -m graphcalc.cli`.  The private `_numpy` is registered the same way:
`errors`, `rng`, `graph`, `calculus` and `cli` read numpy through it, so
numpy loads when one of them first computes with an array.
"""

import _thread
import importlib.util as _util
import sys as _sys
from types import ModuleType as _Module

__version__ = "0.1.0"

# The public names, by the submodule that owns them.  `jacobi` exports none:
# its two aliases are hooked by name by perfbench/layertrace.py.
_EXPORTS = {
    "errors": "AntipodalPointsError DanglingEndpointError DisconnectedInteriorError "
    "DomainError DuplicateEdgeError GraphCalcError GraphFormatError GraphParseError "
    "IndefiniteStepError NonpositiveSpectrumError NotAdjacentError NumericalError "
    "SelfLoopError UnknownVertexError ValidationError",
    "rng": "Lcg64",
    "graph": "Graph SubgraphWindow VertexFunction build_window graph_distance monge_cost volume",
    "calculus": "ALLOWED_SCALES DEFAULT_CONFIG CalculusConfig GreenSymmetricReport "
    "GreenVectorFieldReport HessianMatrix MaximumPrincipleReport VectorField "
    "canonical_window closure_energy dirichlet_energy directional_derivative divergence "
    "divergence_theorem_residual edge_difference gradient gradient_field gradient_norm_sq "
    "green_symmetric_report green_vectorfield_report hessian integrate is_local_max "
    "is_local_min laplacian maximum_principle_check pointwise_product "
    "random_antisymmetric_field random_function run_identity_suite scalar_product "
    "weighted_inner weighted_norm_sq",
    "linalg": "eigh eigvalsh",
    "jacobi": "",
    "spectral": "CourantFischerReport EigenSystem GreenFunction HeatKernel OperatorSpec "
    "apply_operator barta_bound courant_fischer_check eigensystem rayleigh_quotient "
    "symmetric_matrix",
    "constants": "ENUMERATION_VERTEX_CAP CutReport cheeger_constants cheeger_functional "
    "cheeger_g cheeger_h cut_report poincare_dirichlet_constant poincare_neumann_constant "
    "weighted_median",
    "minimax": "NEIGHBORHOOD_CAP MinimaxSearchResult MinimaxWitness VertexClassification "
    "bottleneck_level classify_vertex find_minimax is_coercive_on_window",
    "evolution": "IDENTITY_MAX_STEP SOLVE_RESIDUAL_TOL TRANSPORT_MAX_VALUES "
    "ConvergenceReport DMFRun DMFStepReport HeatIdentitiesReport Trajectory "
    "dmf_convergence_study dmf_run dmf_step heat_identities_report spectral_heat_solve "
    "transport_mass_rate transport_solve",
    "harmonic": "AmbientTensionReport FlowResult MinimizeResult SphereMap SpherePoint "
    "ambient_tension_report check_no_antipodal_edges dirichlet_minimize energy_density "
    "first_variation harmonic_heat_flow map_energy random_rotation rotate_map "
    "sphere_distance sphere_exp sphere_log",
    "io": "format_float load_graph load_vertex_function parse_graph parse_sphere_map "
    "parse_vector_field parse_vertex_function render_sphere_map_csv "
    "render_trajectory_csv render_vertex_function_csv write_graph",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_OWNER]


_LOCK = _thread.RLock()  # held while a submodule runs; its own thread re-enters


class _Lazy(_Module):
    """A registered submodule that has not run: the first attribute read runs
    it under _LOCK as a _Running module, then makes it a plain module."""

    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _Lazy:
                self.__class__ = _Running
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    self.__class__ = _Lazy  # the next use runs it again
                    raise
                self.__class__ = _Module
        return _Module.__getattribute__(self, attr)


class _Running(_Module):
    """A submodule while its code runs: every read takes _LOCK first."""

    def __getattribute__(self, attr):
        with _LOCK:
            return _Module.__getattribute__(self, attr)


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules to run on first use."""
    spec = _util.find_spec(f"{__name__}.{name}")
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    module.__class__ = _Lazy
    return module


# bound on the package too, so that `from . import spectral` does not run it;
# `_numpy` exports nothing
globals().update({name: _lazy(name) for name in (*_EXPORTS, "_numpy")})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
