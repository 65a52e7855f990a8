"""The library's contract over extreme values: each public function below
returns only finite numbers or raises a GraphCalcError, and no numpy warning
escapes (warnings are errors here).

Graphs have at most 9 vertices, and every value, potential, time, sphere
point coordinate and tangent entry is drawn from the float range's edges
(+-1e308, +-1e200, 1e160, +-5e-324, 0) and a few ordinary values.  The
pointwise functions (laplacian, gradient_norm_sq, dirichlet_energy, integrate,
hessian, scalar_product, divergence_theorem_residual and
maximum_principle_check) return plain Python floats and stay outside the
contract, and so does dmf_convergence_study, whose fitted_order is inf by
design when fewer than two of its errors are positive.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc

from helpers import VALUES, connected_graphs

VALUE = st.sampled_from(VALUES)


def _finite(result) -> bool:
    """Every number in a result: floats, arrays, tuples, vertex functions,
    sphere points and report dataclasses (whose graphs and vertex names are
    skipped)."""
    if isinstance(result, gc.Graph):
        return True
    if isinstance(result, gc.VertexFunction):
        return all(map(math.isfinite, result.values.values()))
    if isinstance(result, gc.SpherePoint):
        return _finite(result.xyz)
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if dataclasses.is_dataclass(result):
        return _finite(dataclasses.astuple(result))
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    return result is None or isinstance(result, str) or math.isfinite(result)


def _function(draw, g, zero=()):
    """A function on every vertex, zero on the given vertices."""
    return gc.VertexFunction(g, {x: 0.0 if x in zero else draw(VALUE) for x in g.vertices})


def _spec(draw, g):
    """An operator spec on the whole graph or on a window with a connected
    interior, and a potential that is absent, a number or a function."""
    bc = draw(st.sampled_from(["none", "dirichlet", "neumann"]))
    if bc == "none":
        region = g
    else:
        # each vertex after the first is a neighbor of one before it
        inner = [draw(st.sampled_from(g.vertices))]
        for _ in range(draw(st.integers(0, len(g) - 2))):
            inner.append(draw(st.sampled_from([y for x in inner for y in g.neighbors(x) if y not in inner])))
        region = gc.build_window(g, inner)
    kind = draw(st.sampled_from(["none", "number", "function"]))
    potential = {"none": None, "number": draw(VALUE), "function": _function(draw, g)}[kind]
    return gc.OperatorSpec(region, bc, potential)


def _calls(draw, g):
    """(name, thunk) for every function under the contract."""
    spec = _spec(draw, g)
    zero = spec.boundary if spec.bc == "dirichlet" and draw(st.booleans()) else ()
    f, h = _function(draw, g, zero), _function(draw, g, zero)
    region = spec.region
    window = region if isinstance(region, gc.SubgraphWindow) else gc.canonical_window(g)
    field = gc.VectorField(g, {p: draw(VALUE) for x, y in g.edges() for p in ((x, y), (y, x))})
    t = draw(VALUE)
    x, y = draw(st.sampled_from(g.vertices)), draw(st.sampled_from(g.vertices))
    coords = {v: (draw(VALUE), draw(VALUE), draw(VALUE)) for v in g.vertices}
    tangent = [draw(VALUE) for _ in range(3)]

    j = draw(st.integers(1, 3))
    grid = (0.0, 0.005, 0.01)  # a uniform step the heat identities accept
    tau = abs(t)  # a flow's final time, with dt = tau / k for transport
    dt = tau / draw(st.integers(1, 4))
    phi = _function(draw, g, window.boundary)  # dmf's data vanishes there
    times = [draw(VALUE) for _ in range(draw(st.integers(0, 3)))]
    states = [f, h][: draw(st.integers(0, 2))]

    def kernel():
        return gc.HeatKernel(gc.eigensystem(spec))

    def green():
        return gc.GreenFunction(gc.eigensystem(spec))

    def sphere_map():
        # inside the call: a point SpherePoint refuses is a ValidationError
        return gc.SphereMap(g, {v: gc.SpherePoint(*c) for v, c in coords.items()})

    return [
        ("apply_operator", lambda: gc.apply_operator(spec, f)),
        ("rayleigh_quotient", lambda: gc.rayleigh_quotient(f, spec)),
        ("weighted_inner", lambda: gc.weighted_inner(f, h, g.vertices)),
        ("weighted_norm_sq", lambda: gc.weighted_norm_sq(f, g.vertices)),
        ("closure_energy", lambda: gc.closure_energy(f, region)),
        ("green_symmetric_report", lambda: gc.green_symmetric_report(f, h, window)),
        ("green_vectorfield_report", lambda: gc.green_vectorfield_report(field, f, window)),
        ("barta_bound", lambda: gc.barta_bound(region, spec.potential, f)),
        ("transport_mass_rate", lambda: gc.transport_mass_rate(g, field, f)),
        ("cheeger_functional", lambda: gc.cheeger_functional(g, f)),
        ("HeatKernel.value", lambda: kernel().value(t, x, y)),
        ("HeatKernel.apply", lambda: kernel().apply(t, f)),
        ("eigensystem", lambda: gc.eigensystem(spec)),
        ("courant_fischer_check", lambda: gc.courant_fischer_check(gc.eigensystem(spec), j, 1, 20, 5)),
        ("GreenFunction.value", lambda: green().value(x, y)),
        ("GreenFunction.apply", lambda: green().apply(f)),
        ("spectral_heat_solve", lambda: gc.spectral_heat_solve(spec, f, (0.0, tau))),
        ("heat_identities_report", lambda: gc.heat_identities_report(gc.spectral_heat_solve(spec, f, grid), spec)),
        ("poincare_dirichlet_constant", lambda: gc.poincare_dirichlet_constant(window)),
        ("dmf_run", lambda: gc.dmf_run(phi, spec.potential, tau, 2, window)),
        ("transport_solve", lambda: gc.transport_solve(g, field, f, tau, dt)),
        ("weighted_median", lambda: gc.weighted_median(g, f)),
        ("bottleneck_level", lambda: gc.bottleneck_level(g, f, x, y)),
        ("sphere_log", lambda: gc.sphere_log(sphere_map().point(x), sphere_map().point(y))),
        ("sphere_exp", lambda: gc.sphere_exp(sphere_map().point(x), tangent)),
        ("first_variation", lambda: gc.first_variation(sphere_map(), x, region)),
        ("energy_density", lambda: gc.energy_density(sphere_map(), x, region)),
        ("map_energy", lambda: gc.map_energy(sphere_map(), region)),
        ("ambient_tension_report", lambda: gc.ambient_tension_report(sphere_map(), x, region)),
        ("render_trajectory_csv", lambda: gc.render_trajectory_csv(times, states)),
    ]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_library_results_are_finite_or_graphcalc_errors(g, data):
    for name, call in _calls(data.draw, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except gc.GraphCalcError:
                continue
        assert _finite(result), (name, result)


def test_checker_finds_a_value_that_is_not_finite():
    p3 = gc.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert _finite((1.0, gc.VertexFunction(p3, {"a": 1.0}), None))
    assert not _finite((1.0, (2.0, math.nan)))
    assert not _finite(math.inf)
    assert _finite((gc.SpherePoint(1.0, 0.0, 0.0), np.zeros(3), "b"))
    assert not _finite(np.array([0.0, math.nan]))
