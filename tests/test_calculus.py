import math

import pytest
from hypothesis import given, settings

import graphcalc as gc

from conftest import FIXTURES
from helpers import connected_graphs

SCALE23 = gc.CalculusConfig(laplacian_scale=2.0 / 3.0)


def test_gradient_and_laplacian_p3(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    assert gc.gradient(f, "b") == (-1.0, -1.0)
    assert gc.gradient(f, "a") == (1.0,)
    assert gc.laplacian(f, "b") == -1.0
    assert gc.laplacian(f, "b", SCALE23) == pytest.approx(-2.0 / 3.0)
    assert gc.gradient_norm_sq(f, "b") == 1.0


def test_dirichlet_and_closure_energy_p3(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    w = gc.build_window(p3, ["b"])
    assert gc.dirichlet_energy(f, p3) == 4.0
    assert gc.dirichlet_energy(f, w) == 2.0
    assert gc.closure_energy(f, w) == 4.0


def test_vector_field_validation(c4):
    with pytest.raises(gc.NotAdjacentError):
        gc.VectorField(c4, {("v0", "v2"): 1.0})
    w = gc.VectorField(c4, {("v0", "v1"): 2.0, ("v1", "v0"): -2.0})
    assert w.is_antisymmetric()
    assert w.value("v0", "v1") == 2.0
    with pytest.raises(gc.DomainError):
        w.value("v1", "v2")


def test_divergence_and_products(c4):
    w = gc.VectorField(
        c4,
        {
            ("v0", "v1"): 1.0,
            ("v1", "v0"): -1.0,
            ("v0", "v3"): 2.0,
            ("v3", "v0"): -2.0,
            ("v1", "v2"): 0.5,
            ("v2", "v1"): -0.5,
            ("v2", "v3"): 0.0,
            ("v3", "v2"): 0.0,
        },
    )
    assert gc.divergence(w, "v0") == pytest.approx(1.5)
    f = gc.VertexFunction(c4, {"v0": 1.0, "v1": 2.0, "v2": 0.0, "v3": -1.0})
    # W(f)(v0) = (1*(2-1) + 2*(-1-1)) / 2
    assert gc.directional_derivative(w, f, "v0") == pytest.approx(-1.5)
    gf = gc.gradient_field(f)
    assert gc.scalar_product(w, gf, "v0") == pytest.approx(-1.5)


def test_hessian_trace_identity():
    rng = gc.Lcg64(11)
    scale1 = gc.CalculusConfig(laplacian_scale=1.0)
    for name, make in FIXTURES.items():
        g = make()
        f = gc.random_function(g, rng)
        for x in g.vertices:
            tr = gc.hessian(f, x).trace()
            assert tr == pytest.approx(
                g.degree(x) * gc.laplacian(f, x, scale1), abs=1e-12
            ), (name, x)


def test_hessian_entries_p3(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 4.0})
    h = gc.hessian(f, "b")
    assert h.neighbor_order == ("a", "c")
    assert h.entries == ((-1.0, 1.0), (1.0, 3.0))
    assert h.trace() == 2.0


def test_divergence_theorem_antisymmetric(c4):
    rng = gc.Lcg64(5)
    for _ in range(10):
        w = gc.random_antisymmetric_field(c4, rng)
        assert abs(gc.divergence_theorem_residual(w, c4, c4.vertices)) <= 1e-13
        assert abs(gc.divergence_theorem_residual(w, c4, ["v0", "v1"])) <= 1e-13


def test_divergence_theorem_needs_antisymmetry(c4):
    w = gc.VectorField(
        c4,
        {(x, y): 1.0 for x, y in [("v0", "v1"), ("v1", "v0")]},
    )
    # symmetric field on one edge: residual is 2, not 0
    assert gc.divergence_theorem_residual(w, c4, ["v0", "v1"]) == 2.0


def test_green_symmetric_exact_p3(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    w = gc.build_window(p3, ["b"])
    rep = gc.green_symmetric_report(f, f, w)
    assert rep.lhs == -2.0
    assert rep.interior_term == 0.0
    assert rep.boundary_term == -2.0
    assert rep.residual == 0.0
    assert rep.ratio_vs_energy == pytest.approx(-1.0)


def test_green_symmetric_random_any_f_g():
    rng = gc.Lcg64(23)
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        for cfg in (gc.DEFAULT_CONFIG, SCALE23):
            for _ in range(8):
                f = gc.random_function(g, rng)
                h = gc.random_function(g, rng)
                rep = gc.green_symmetric_report(f, h, w, cfg)
                assert abs(rep.residual) <= 1e-13, (name, cfg.laplacian_scale)


def test_green_symmetric_ratio_only_for_zero_boundary_diagonal(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    f = gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": 2.0, "d": 1.0, "e": 0.0})
    h = gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0, "e": 0.0})
    assert gc.green_symmetric_report(f, f, w).ratio_vs_energy is not None
    assert gc.green_symmetric_report(f, h, w).ratio_vs_energy is None
    g2 = gc.VertexFunction(p5, {"a": 1.0, "b": 1.0, "c": 2.0, "d": 1.0, "e": 0.0})
    assert gc.green_symmetric_report(g2, g2, w).ratio_vs_energy is None


def test_green_vectorfield_random():
    rng = gc.Lcg64(29)
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        for _ in range(8):
            f = gc.random_function(g, rng)
            vf = gc.random_antisymmetric_field(g, rng)
            rep = gc.green_vectorfield_report(vf, f, w)
            assert abs(rep.residual) <= 1e-13, name


def test_local_extrema_and_maximum_principle(p3):
    f = gc.VertexFunction(p3, {"a": 2.0, "b": 1.0, "c": 3.0})
    assert gc.is_local_min(f, "b", strict=True)
    assert not gc.is_local_min(f, "a")
    assert gc.is_local_max(f, "c", strict=True)
    rep = gc.maximum_principle_check(f, "b")
    assert rep.laplacian_value >= 0.0


def test_maximum_principle_random():
    rng = gc.Lcg64(31)
    for name, make in FIXTURES.items():
        g = make()
        for _ in range(20):
            f = gc.random_function(g, rng)
            for x in g.vertices:
                if gc.is_local_min(f, x):
                    assert gc.laplacian(f, x) >= 0.0, (name, x)
                    assert min(gc.gradient(f, x)) >= 0.0
                    hess = gc.hessian(f, x)
                    assert min(e for row in hess.entries for e in row) >= 0.0


def test_config_validation():
    with pytest.raises(gc.ValidationError):
        gc.CalculusConfig(laplacian_scale=0.5)
    assert gc.CalculusConfig(laplacian_scale=2.0 / 3.0).laplacian_scale == 2.0 / 3.0


def test_pointwise_product_rule(c4):
    rng = gc.Lcg64(37)
    f = gc.random_function(c4, rng)
    vf = gc.random_antisymmetric_field(c4, rng)
    fw = gc.pointwise_product(f, vf)
    for x in c4.vertices:
        lhs = gc.divergence(fw, x)
        rhs = f.value(x) * gc.divergence(vf, x) + 0.5 * gc.directional_derivative(
            vf, f, x
        )
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_canonical_window_is_proper():
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        assert w.interior
        assert set(w.interior) | set(w.boundary) <= set(g.vertices)
        assert g.is_connected(within=w.interior), name


def test_identity_suite_shape_and_determinism(c4):
    r1 = gc.run_identity_suite(c4, seed=9, trials=5)
    r2 = gc.run_identity_suite(c4, seed=9, trials=5)
    assert r1 == r2
    assert r1["green_symmetric"]["max_abs_residual"] <= 1e-12
    r3 = gc.run_identity_suite(c4, seed=10, trials=5)
    assert r3 != r1


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(connected_graphs())
def test_identity_suite_property(g):
    report = gc.run_identity_suite(g, seed=len(g), trials=3)
    residuals = [
        v["max_abs_residual"]
        for v in report.values()
        if isinstance(v, dict) and "max_abs_residual" in v
    ]
    assert len(residuals) == 7
    assert max(residuals) <= 1e-12
