import itertools
import math

import pytest
from hypothesis import given, settings

import graphcalc as gc
from graphcalc import constants

from conftest import FIXTURES, make_c4, make_k2, make_k4, make_p3, make_star4
from helpers import brute_cheeger, connected_graphs, random_connected_graph

SMALL = {
    "p3": make_p3,
    "c4": make_c4,
    "k2": make_k2,
    "k4": make_k4,
    "star4": make_star4,
}


def test_cut_report_exact_fields(c4):
    rep = gc.cut_report(c4, ["v0", "v1"])
    assert rep.subset == ("v0", "v1")
    assert rep.edge_cut == 2
    assert rep.boundary_vertices == 2
    assert rep.volume_inside == 4
    assert rep.volume_outside == 4
    assert rep.h_value == 0.5
    assert rep.g_value == 0.5


def test_cut_report_validation(c4):
    with pytest.raises(gc.ValidationError):
        gc.cut_report(c4, [])
    with pytest.raises(gc.ValidationError):
        gc.cut_report(c4, list(c4.vertices))
    with pytest.raises(gc.UnknownVertexError):
        gc.cut_report(c4, ["nope"])


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("kind", ["h", "g"])
def test_cheeger_matches_brute_force(name, kind):
    g = SMALL[name]()
    value, rep = (gc.cheeger_h if kind == "h" else gc.cheeger_g)(g)
    want, witness_key = brute_cheeger(g, kind)
    assert value == float(want), name
    got_key = tuple(g.index[v] for v in rep.subset)
    assert got_key == witness_key, name
    got_ratio = rep.h_value if kind == "h" else rep.g_value
    assert got_ratio == value


def _assert_matches_brute_force(g, want=None):
    want = want or {kind: brute_cheeger(g, kind) for kind in ("h", "g")}
    h, hrep, gv, grep = gc.cheeger_constants(g)
    assert gc.cheeger_h(g) == (h, hrep)
    assert gc.cheeger_g(g) == (gv, grep)
    for kind, value, rep in (("h", h, hrep), ("g", gv, grep)):
        value_want, witness_key = want[kind]
        assert value == float(value_want), (g.vertices, kind)
        assert tuple(g.index[v] for v in rep.subset) == witness_key, (g.vertices, kind)


def test_cheeger_matches_brute_force_larger(monkeypatch, grid4, octahedron):
    # with chunks of 8 masks later chunks beat the running minimum and reset
    # the candidate lists, a path no graph within one real chunk takes
    rng = gc.Lcg64(53)
    graphs = [grid4, octahedron] + [random_connected_graph(rng, 6, 11) for _ in range(4)]
    for g in graphs:
        want = {kind: brute_cheeger(g, kind) for kind in ("h", "g")}
        for chunk in (constants._CHUNK, 8):
            monkeypatch.setattr(constants, "_CHUNK", chunk)
            _assert_matches_brute_force(g, want)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(connected_graphs())
def test_cheeger_constants_property(g):
    _assert_matches_brute_force(g)


def test_cheeger_frozen_values(c4, k4, k2, star4):
    h, rep = gc.cheeger_h(c4)
    assert h == 0.5 and rep.subset == ("v0", "v1")
    gval, grep = gc.cheeger_g(c4)
    assert gval == 0.5 and grep.subset == ("v0", "v1")
    assert gc.cheeger_h(k4)[0] == pytest.approx(2.0 / 3.0)
    assert gc.cheeger_h(k2)[0] == 1.0
    gstar, repstar = gc.cheeger_g(star4)
    assert gstar == pytest.approx(1.0 / 3.0)
    assert repstar.subset == ("u1", "u2", "u3")
    # the report for the hub alone still rates its own cut at 1
    assert gc.cut_report(star4, ["center"]).g_value == 1.0


def test_functional_on_indicators_reproduces_subset_ratio():
    for name, make in SMALL.items():
        g = make()
        n = len(g)
        for mask in range(1, (1 << n) - 1):
            values = {v: float(mask >> g.index[v] & 1) for v in g.vertices}
            f = gc.VertexFunction(g, values)
            inside = [v for v in g.vertices if values[v] == 1.0]
            assert gc.cheeger_functional(g, f) == gc.cut_report(g, inside).h_value, (
                name,
                inside,
            )


def test_functional_bounds_cheeger_from_above():
    rng = gc.Lcg64(41)
    for name, make in SMALL.items():
        g = make()
        h, _ = gc.cheeger_h(g)
        for _ in range(25):
            f = gc.random_function(g, rng)
            try:
                ratio = gc.cheeger_functional(g, f)
            except gc.ValidationError:
                continue
            assert ratio >= h - 1e-12, name


def test_weighted_median():
    p3 = make_p3()
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 2.0})
    assert gc.weighted_median(p3, f) == 1.0
    k2 = make_k2()
    g = gc.VertexFunction(k2, {"a": 0.0, "b": 1.0})
    # exact tie: smaller endpoint of the minimizing interval
    assert gc.weighted_median(k2, g) == 0.0


def test_cheeger_functional_validation(c4):
    const = gc.VertexFunction(c4, {v: 3.0 for v in c4.vertices})
    with pytest.raises(gc.ValidationError):
        gc.cheeger_functional(c4, const)


def test_cheeger_validation_errors():
    lone = gc.Graph(("a", "b", "c"), (("a", "b"),))
    with pytest.raises(gc.ValidationError):
        gc.cheeger_h(lone)
    names = tuple(f"n{i}" for i in range(gc.ENUMERATION_VERTEX_CAP + 1))
    chain = gc.Graph(names, tuple(zip(names, names[1:])))
    with pytest.raises(gc.ValidationError):
        gc.cheeger_h(chain)


def test_poincare_dirichlet_frozen(p3, p5):
    w3 = gc.build_window(p3, ["b"])
    assert gc.poincare_dirichlet_constant(w3) == pytest.approx(2.0, abs=1e-12)
    w5 = gc.build_window(p5, ["b", "c", "d"])
    assert gc.poincare_dirichlet_constant(w5) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-12
    )


def test_poincare_dirichlet_inequality_and_sharpness(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    c = gc.poincare_dirichlet_constant(w)
    rng = gc.Lcg64(43)
    for _ in range(50):
        vals = {v: 0.0 for v in w.closure}
        for v in w.interior:
            vals[v] = rng.uniform(-1.0, 1.0)
        f = gc.VertexFunction(p5, vals)
        energy = gc.closure_energy(f, w)
        mass = gc.weighted_norm_sq(f, w.interior)
        assert energy >= c * mass - 1e-10
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet", None, gc.DEFAULT_CONFIG))
    phi = es.functions[0]
    vals = {v: 0.0 for v in w.closure}
    for v in w.interior:
        vals[v] = phi.value(v)
    f = gc.VertexFunction(p5, vals)
    ratio = gc.closure_energy(f, w) / gc.weighted_norm_sq(f, w.interior)
    assert ratio == pytest.approx(c, abs=1e-12)


def test_poincare_neumann_frozen(c4, k2):
    assert gc.poincare_neumann_constant(c4) == pytest.approx(2.0, abs=1e-12)
    assert gc.poincare_neumann_constant(k2) == pytest.approx(4.0, abs=1e-12)


def test_poincare_neumann_inequality_and_sharpness():
    rng = gc.Lcg64(47)
    for name, make in FIXTURES.items():
        g = make()
        c = gc.poincare_neumann_constant(g)
        vol = sum(g.degree(v) for v in g.vertices)
        for _ in range(20):
            f = gc.random_function(g, rng)
            mean = sum(f.value(v) * g.degree(v) for v in g.vertices) / vol
            centered = gc.VertexFunction(g, {v: f.value(v) - mean for v in g.vertices})
            energy = gc.dirichlet_energy(centered, g)
            mass = gc.weighted_norm_sq(centered, g.vertices)
            assert energy >= c * mass - 1e-9, name
        es = gc.eigensystem(gc.OperatorSpec(g, "none", None, gc.DEFAULT_CONFIG))
        phi = es.functions[1]
        ratio = gc.dirichlet_energy(phi, g) / gc.weighted_norm_sq(phi, g.vertices)
        assert ratio == pytest.approx(c, abs=1e-10), name


def test_poincare_scale_invariance(p5):
    # the sharp constant is a property of the graph, not of the scale choice
    w = gc.build_window(p5, ["b", "c", "d"])
    cfg = gc.CalculusConfig(laplacian_scale=2.0 / 3.0)
    assert gc.poincare_dirichlet_constant(w, cfg) == pytest.approx(
        gc.poincare_dirichlet_constant(w), abs=1e-12
    )
    assert gc.poincare_neumann_constant(p5, cfg) == pytest.approx(
        gc.poincare_neumann_constant(p5), abs=1e-12
    )


def test_poincare_neumann_validation():
    two = gc.Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    with pytest.raises(gc.ValidationError):
        gc.poincare_neumann_constant(two)
