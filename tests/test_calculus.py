import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import graphcalc as gc

from conftest import FIXTURES
from helpers import PerDrawLcg64, connected_graphs, grid_graph, pointwise_identity_suite

SCALE23 = gc.CalculusConfig(laplacian_scale=2.0 / 3.0)


def test_gradient_and_laplacian_p3(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    assert gc.gradient(f, "b") == (-1.0, -1.0)
    assert gc.gradient(f, "a") == (1.0,)
    assert gc.laplacian(f, "b") == -1.0
    assert gc.laplacian(f, "b", SCALE23) == pytest.approx(-2.0 / 3.0)
    assert gc.gradient_norm_sq(f, "b") == 1.0


def test_integrate_is_the_degree_weighted_sum(p3):
    f = gc.VertexFunction(p3, {"a": 1.0, "b": 2.0, "c": 3.0})
    assert gc.integrate(f, p3.vertices) == 1.0 * 1 + 2.0 * 2 + 3.0 * 1
    assert gc.integrate(f, ["b"]) == 4.0
    assert gc.integrate(f, []) == 0.0
    with pytest.raises(gc.DomainError):
        gc.integrate(gc.VertexFunction(p3, {"a": 1.0}), ["a", "b"])


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
    with pytest.raises(gc.DomainError, match=r"^field not defined on ordered pair \(v0, v3\)$"):
        w.pair_values()


def test_pair_values_gathers_once_and_scales_the_base(c4):
    w = gc.random_antisymmetric_field(c4, gc.Lcg64(5))
    lay = c4.layout
    got = w.pair_values()
    assert got.tolist() == [w.value(c4.vertices[i], c4.vertices[j]) for i, j in zip(lay.src, lay.dst)]
    assert w.pair_values() is got and not got.flags.writeable
    half = w.scaled(0.5).scaled(-3.0)
    assert half.pair_values().tobytes() == (-3.0 * (0.5 * got)).tobytes()
    assert "entries" not in vars(half)  # the scaled field built no entries


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
    assert not w.is_antisymmetric()
    assert not gc.VectorField(c4, {("v0", "v1"): 1.0}).is_antisymmetric()  # one way only
    assert gc.VectorField(c4, {("v0", "v1"): 1.0, ("v1", "v0"): -1.0}).is_antisymmetric()


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


def test_maximum_principle_check_takes_the_gradient_once(p3, monkeypatch):
    calls = []
    gradient = gc.calculus.gradient

    def counted(f, x):
        calls.append(x)
        return gradient(f, x)

    monkeypatch.setattr(gc.calculus, "gradient", counted)
    f = gc.VertexFunction(p3, {"a": 2.0, "b": 1.0, "c": 3.0})
    for x, is_min in (("a", False), ("b", True), ("c", False)):
        rep = gc.maximum_principle_check(f, x)
        assert rep.is_min is rep.gradient_nonnegative is is_min
    assert calls == ["a", "b", "c"]


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


def test_config_snaps_a_scale_within_1e_12():
    # the config used to keep 0.6666666666667 and run with it
    assert gc.CalculusConfig(laplacian_scale=0.6666666666667).laplacian_scale == 2.0 / 3.0
    assert gc.CalculusConfig(1 - 5e-13).laplacian_scale == 1.0
    assert gc.CalculusConfig(0.6666666666667) == gc.CalculusConfig(2.0 / 3.0)
    with pytest.raises(gc.ValidationError) as e:
        gc.CalculusConfig(0.66667)
    assert str(e.value) == "laplacian_scale must be 1 or 2/3, got 0.66667"


def test_config_refuses_a_scale_that_is_not_a_number():
    # a string used to escape as a bare TypeError from the subtraction, and
    # a pair of scales as numpy's "truth value of an array" ValueError
    for bad in ("1", None, [1.0], np.array([1.0, 1.0]), complex(1.0, 0.0)):
        with pytest.raises(gc.ValidationError, match="^laplacian_scale must be 1 or 2/3, got "):
            gc.CalculusConfig(bad)
    assert gc.CalculusConfig(np.float32(1.0)).laplacian_scale == 1.0
    assert gc.CalculusConfig(True).laplacian_scale == 1.0
    assert gc.CalculusConfig(np.float64(2.0 / 3.0)).laplacian_scale == 2.0 / 3.0


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


def assert_suite_matches_pointwise(g, seed, trials, cfg=gc.DEFAULT_CONFIG):
    """The array suite against the per-vertex reference: the same draws, so
    the same maximum-principle floats; residuals may differ by roundoff."""
    got = gc.run_identity_suite(g, seed, trials, cfg)
    want = pointwise_identity_suite(g, seed, trials, cfg)
    assert list(got) == list(want)
    assert got["maximum_principle"] == want["maximum_principle"]
    for key in ("window_interior", "scale", "seed"):
        assert got[key] == want[key]
    for name, value in got.items():
        if isinstance(value, dict) and "max_abs_residual" in value:
            assert value["trials"] == want[name]["trials"] == trials
            assert value["max_abs_residual"] <= 1e-12, name
            assert want[name]["max_abs_residual"] <= 1e-12, name
    return got


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_identity_suite_matches_pointwise_reference(name):
    g = FIXTURES[name]()
    for cfg in (gc.DEFAULT_CONFIG, SCALE23):
        report = assert_suite_matches_pointwise(g, 17, 40, cfg)
        assert report["maximum_principle"]["local_minima_checked"] > 0


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(connected_graphs())
def test_identity_suite_matches_pointwise_reference_property(g):
    assert_suite_matches_pointwise(g, len(g) + 3, 4)


def test_identity_suite_zero_trials(k4):
    # zero or negative trials used to report every residual as 0 and each
    # minimum as None, a certificate that checked nothing; the count is
    # refused before the graph is looked at
    isolated = gc.Graph(["a", "b", "z"], [("a", "b")])
    for g, trials in ((k4, 0), (k4, -5), (isolated, 0)):
        with pytest.raises(gc.ValidationError, match=f"^trials must be at least 1, got {trials}$"):
            gc.run_identity_suite(g, 5, trials)


def test_identity_suite_batch_equals_per_draw_bit_for_bit(monkeypatch):
    # one uniforms() batch of 2n + |E| per trial against the uniform() calls
    # the suite made one at a time: the same report, repr for repr
    graphs = [make() for make in FIXTURES.values()] + [grid_graph(k) for k in (3, 4, 6)]
    for g in graphs:
        for seed in (1, 2, 17):
            for trials in (1, 4):
                got = repr(gc.run_identity_suite(g, seed, trials, SCALE23))
                monkeypatch.setattr(gc.calculus, "Lcg64", PerDrawLcg64)
                want = repr(gc.run_identity_suite(g, seed, trials, SCALE23))
                monkeypatch.undo()
                assert got == want, (g.vertices[:3], seed, trials)


def test_weighted_norm_sq_overflow_is_numerical_error(p3):
    # a square past the float range used to escape as Python's bare
    # OverflowError (34, 'Numerical result out of range')
    big = gc.VertexFunction(p3, {"a": 1.0, "b": 1e200, "c": 0.0})
    with pytest.raises(gc.NumericalError, match="^weighted norm overflowed: "):
        gc.weighted_norm_sq(big, p3.vertices)
    # in range, the ** squares are kept: 1e154 squares to a finite 1e308
    near = gc.VertexFunction(p3, {"a": 1e154, "b": 1.0, "c": 0.1})
    assert gc.weighted_norm_sq(near, p3.vertices) == 1e154**2 + 2.0 + 0.1**2 < math.inf


def test_weighted_norm_overflow_names_what_overflowed(p3):
    # the subject used to be "a square" also when every square was finite
    cases = [
        ({"a": 1.0, "b": 1e200, "c": 0.0}, "a square"),
        ({"a": 1e154, "b": 0.0, "c": 1e154}, "the degree-weighted sum"),  # 1e308 + 1e308
        ({"a": 0.0, "b": 1e154, "c": 0.0}, "the degree-weighted sum"),  # 2 * 1e308
    ]
    for values, subject in cases:
        with pytest.raises(gc.NumericalError) as e:
            gc.weighted_norm_sq(gc.VertexFunction(p3, values), p3.vertices)
        assert str(e.value) == f"weighted norm overflowed: {subject} is not finite"


def alternating(p5):
    return gc.VertexFunction(p5, dict(zip(p5.vertices, (1e308, -1e308, 1e308, -1e308, 1e308))))


def test_weighted_sums_overflow_is_numerical_error(p5):
    # weighted_inner used to return nan
    big = gc.VertexFunction(p5, dict.fromkeys(p5.vertices, 1e308))
    with pytest.raises(gc.NumericalError, match="^weighted inner product overflowed: a sum is not finite$"):
        gc.weighted_inner(alternating(p5), big, p5.vertices)
    # every square is finite and a degree-weighted one is not; this used to return inf
    near = gc.VertexFunction(p5, dict.fromkeys(p5.vertices, 1e154))
    with pytest.raises(gc.NumericalError, match="^weighted norm overflowed: "):
        gc.weighted_norm_sq(near, p5.vertices)


def test_green_symmetric_report_overflow_is_numerical_error(p5):
    # used to return lhs = -inf and residual = nan
    f = gc.VertexFunction(p5, dict(zip(p5.vertices, (0.0, 1e200, -1e200, 1e200, 0.0))))
    with pytest.raises(gc.NumericalError, match="^green identity overflowed: a term is not finite$"):
        gc.green_symmetric_report(f, f, gc.build_window(p5, ["b", "c", "d"]))


def test_green_vectorfield_report_overflow_is_numerical_error(p5):
    # used to return lhs=nan and residual=nan
    w = gc.VectorField(p5, {p: 1e308 for x, y in p5.edges() for p in ((x, y), (y, x))})
    with pytest.raises(gc.NumericalError, match="^green identity overflowed: a term is not finite$"):
        gc.green_vectorfield_report(w, alternating(p5), gc.build_window(p5, ["b", "c", "d"]))


def test_closure_energy_overflow_is_numerical_error(p5):
    # used to warn "overflow encountered in subtract" and return inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gc.NumericalError, match="^closure energy overflowed: a sum is not finite$"):
            gc.closure_energy(alternating(p5), p5)


def test_identity_suite_isolated_vertex_message():
    # the first isolated vertex in file order, as the pointwise stencil names it
    g = gc.Graph(["a", "b", "z", "c", "y"], [("a", "b"), ("b", "c")])
    for suite in (gc.run_identity_suite, pointwise_identity_suite):
        with pytest.raises(gc.ValidationError, match="^vertex 'z' is isolated$"):
            suite(g, 3, 1)
