"""One region model: a whole graph is the window over all of its vertices
with an empty boundary, and every operator gives the same answer on both."""

import numpy as np
import pytest

import graphcalc as gc

from conftest import make_octahedron, make_p5
from helpers import grid_graph


def _pair(g):
    return g, gc.build_window(g, g.vertices)


def _values(g, seed, lo=-1.0, hi=1.0):
    return gc.random_function(g, gc.Lcg64(seed), lo, hi)


def test_graph_has_the_window_interface():
    g, w = _pair(make_p5())
    assert g.graph is g
    assert g.interior == g.closure == g.vertices
    assert g.boundary == ()
    assert (w.graph, w.interior, w.boundary, w.closure) == (g, g.vertices, (), g.vertices)


def test_stencil_returns_neighbors_or_raises():
    g = gc.Graph(["a", "b", "z"], [("a", "b")])
    assert g.stencil("a") == g.neighbors("a") == ("b",)
    with pytest.raises(gc.ValidationError, match="vertex 'z' is isolated"):
        g.stencil("z")
    with pytest.raises(gc.UnknownVertexError, match="unknown vertex 'q'"):
        g.stencil("q")
    f = gc.VertexFunction(g, {"a": 1.0, "b": 2.0, "z": 3.0})
    for op in (gc.laplacian, gc.hessian, gc.gradient_norm_sq):
        with pytest.raises(gc.ValidationError, match="isolated"):
            op(f, "z")


@pytest.mark.parametrize("g", [grid_graph(4), make_octahedron()], ids=["grid4", "octahedron"])
def test_whole_graph_and_empty_boundary_window_agree(g):
    g, w = _pair(g)
    q = _values(g, 5)
    for potential in (None, 0.25, q):
        whole = gc.symmetric_matrix(gc.OperatorSpec(g, "none", potential))
        window = gc.symmetric_matrix(gc.OperatorSpec(w, "dirichlet", potential))
        assert whole.tobytes() == window.tobytes()

    f = _values(g, 7)
    energies = {
        gc.closure_energy(f, g),
        gc.dirichlet_energy(f, g),
        gc.closure_energy(f, w),
        gc.dirichlet_energy(f, w),
    }
    assert len(energies) == 1

    u = _values(g, 11, 0.5, 1.5)
    for potential in (None, 0.25, q):
        assert gc.barta_bound(g, potential, u) == gc.barta_bound(w, potential, u)

    rng = gc.Lcg64(13)
    m = gc.SphereMap(
        g, {x: gc.SpherePoint(rng.normal(), rng.normal(), rng.normal()) for x in g.vertices}
    )
    assert gc.map_energy(m, g) == gc.map_energy(m, w)
    for x in g.vertices:
        dens = {gc.energy_density(m, x, r) for r in (g, None, w)}
        assert len(dens) == 1
        fv = [gc.first_variation(m, x, r).tobytes() for r in (g, None, w)]
        assert len(set(fv)) == 1


def test_dirichlet_data_is_checked_once_with_one_message():
    g = make_p5()
    w = gc.build_window(g, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    f = gc.VertexFunction(g, {"a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0, "e": 0.5})
    message = r"dirichlet data must vanish on the boundary, f\(e\) = 0.5"
    calls = (
        lambda: gc.apply_operator(spec, f),
        lambda: gc.spectral_heat_solve(spec, f, [0.0, 0.1]),
        lambda: gc.dmf_step(f, 0.1, 0.0, w),
        lambda: gc.dmf_run(f, 0.0, 1.0, 2, w),
    )
    for call in calls:
        with pytest.raises(gc.ValidationError, match=message):
            call()
    # zero or missing boundary data is accepted and extended by zero
    ok = gc.VertexFunction(g, {"b": 1.0, "c": 2.0, "d": 3.0, "e": 0.0})
    run = gc.dmf_run(ok, 0.0, 1.0, 2, w)
    assert all(s.value("a") == s.value("e") == 0.0 for s in run.states)
    # neumann data may take any boundary value: the operator reflects it
    neumann = gc.apply_operator(gc.OperatorSpec(w, "neumann"), f)
    assert neumann.domain == w.interior


def test_static_potential_forms_agree():
    g = make_p5()
    w = gc.build_window(g, ["b", "c", "d"])
    const = gc.VertexFunction(g, {x: 0.25 for x in g.vertices})
    phi = gc.VertexFunction(g, {"b": 1.0, "c": -0.5, "d": 0.25})
    runs = [gc.dmf_run(phi, p, 0.5, 4, w) for p in (0.25, const, lambda t: 0.25)]
    states = [[s.values for s in r.states] for r in runs]
    assert states[0] == states[1] == states[2]
    reports = [gc.dmf_convergence_study(phi, p, 0.5, (4, 8), w) for p in (0.25, const)]
    assert reports[0] == reports[1]
    assert gc.dmf_convergence_study(phi, lambda t: 0.25, 0.5, (4, 8), w).mode == "self"
    zero = [gc.barta_bound(w, p, gc.VertexFunction(g, {x: 1.0 for x in g.vertices}))
            for p in (None, 0.0)]
    assert zero[0] == zero[1]
