import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
from graphcalc import spectral

from conftest import FIXTURES
from helpers import (
    connected_graphs,
    eig_oracle,
    grid_graph,
    grid_interior,
    looped_courant_fischer,
    pointwise_apply_operator,
    pointwise_courant_fischer,
    pointwise_rayleigh_quotient,
)

SCALES = (1.0, 2.0 / 3.0)


def _specs_for(g, cfg, potential):
    yield gc.OperatorSpec(g, "none", potential, cfg)
    w = gc.canonical_window(g)
    yield gc.OperatorSpec(w, "dirichlet", potential, cfg)
    yield gc.OperatorSpec(w, "neumann", potential, cfg)


def _potentials(g, rng):
    yield None
    yield 0.7
    yield gc.VertexFunction(g, {v: rng.uniform(0.0, 2.0) for v in g.vertices})


def test_spec_validation(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    with pytest.raises(gc.ValidationError):
        gc.OperatorSpec(p5, "periodic")
    with pytest.raises(gc.ValidationError):
        gc.OperatorSpec(w, "none")
    with pytest.raises(gc.ValidationError):
        gc.OperatorSpec(p5, "dirichlet")


def test_symmetric_matrix_hand_values(p3):
    w = gc.build_window(p3, ["b"])
    spec = gc.OperatorSpec(w, "dirichlet")
    assert gc.symmetric_matrix(spec).tolist() == [[1.0]]
    spec_q = gc.OperatorSpec(w, "dirichlet", 2.0)
    assert gc.symmetric_matrix(spec_q).tolist() == [[3.0]]


def test_symmetric_matrix_is_symmetric():
    rng = gc.Lcg64(3)
    for name, make in FIXTURES.items():
        g = make()
        for scale in SCALES:
            cfg = gc.CalculusConfig(laplacian_scale=scale)
            for q in _potentials(g, rng):
                for spec in _specs_for(g, cfg, q):
                    M = gc.symmetric_matrix(spec)
                    assert np.array_equal(M, M.T), (name, spec.bc)


def _loop_assembly(spec):
    """symmetric_matrix written out with loops over g.neighbors."""
    g, interior = spec.graph, spec.interior
    pos = {v: i for i, v in enumerate(interior)}
    scale = spec.config.laplacian_scale
    deg = [float(g.degree(v)) for v in interior]
    M = np.zeros((len(interior), len(interior)))
    for x in interior:
        i = pos[x]
        M[i, i] = scale + spec.potential_at(x)
        for y in g.neighbors(x):
            if y in pos:
                M[i, pos[y]] = -scale / math.sqrt(deg[i] * deg[pos[y]])
    if spec.bc == "neumann":
        for b in spec.boundary:
            inb = [pos[z] for z in g.neighbors(b) if z in pos]
            for i in inb:
                for j in inb:
                    M[i, j] -= scale * (1.0 / len(inb)) / math.sqrt(deg[i] * deg[j])
    return M


def _diagonal_grid(k):
    g = grid_graph(k)
    diagonals = [(f"r{i}c{j}", f"r{i + 1}c{j + 1}") for i in range(k - 1) for j in range(k - 1)]
    return gc.Graph(g.vertices, list(g.edges()) + diagonals)


@pytest.mark.parametrize("k", [3, 4, 7])
@pytest.mark.parametrize("diagonals", [False, True])
def test_symmetric_matrix_matches_loop_assembly_bit_for_bit(k, diagonals):
    g = _diagonal_grid(k) if diagonals else grid_graph(k)
    rng = gc.Lcg64(k)
    windows = [
        gc.build_window(g, grid_interior(k)),
        gc.build_window(g, [f"r{i}c{j}" for i in range(k - 1) for j in range(k // 2 + 1)]),
    ]
    for cfg in (gc.CalculusConfig(s) for s in SCALES):
        for potential in _potentials(g, rng):
            specs = [gc.OperatorSpec(g, "none", potential, cfg)]
            specs += [gc.OperatorSpec(w, bc, potential, cfg) for w in windows for bc in ("dirichlet", "neumann")]
            for spec in specs:
                assert gc.symmetric_matrix(spec).tobytes() == _loop_assembly(spec).tobytes()


def test_eigensystem_matches_dense_oracle():
    rng = gc.Lcg64(7)
    for name, make in FIXTURES.items():
        g = make()
        for scale in SCALES:
            cfg = gc.CalculusConfig(laplacian_scale=scale)
            for q in _potentials(g, rng):
                for spec in _specs_for(g, cfg, q):
                    es = gc.eigensystem(spec)
                    want = eig_oracle(gc.symmetric_matrix(spec))
                    assert np.allclose(es.values, want, atol=1e-11), (name, spec.bc)


def test_eigenfunctions_weighted_orthonormal():
    rng = gc.Lcg64(13)
    for name, make in FIXTURES.items():
        g = make()
        for q in _potentials(g, rng):
            for spec in _specs_for(g, gc.DEFAULT_CONFIG, q):
                es = gc.eigensystem(spec)
                for i in range(len(es)):
                    for j in range(i, len(es)):
                        got = gc.weighted_inner(
                            es.functions[i], es.functions[j], spec.interior
                        )
                        want = 1.0 if i == j else 0.0
                        assert got == pytest.approx(want, abs=1e-10), (name, spec.bc)


def test_eigenfunctions_satisfy_operator_equation():
    rng = gc.Lcg64(17)
    for name, make in FIXTURES.items():
        g = make()
        for q in _potentials(g, rng):
            for spec in _specs_for(g, gc.DEFAULT_CONFIG, q):
                es = gc.eigensystem(spec)
                for k in range(len(es)):
                    lf = gc.apply_operator(spec, es.functions[k])
                    for x in spec.interior:
                        assert lf.value(x) == pytest.approx(
                            es.values[k] * es.functions[k].value(x), abs=1e-10
                        ), (name, spec.bc, k)


def test_frozen_spectra(c4, k4, p5):
    es_c4 = gc.eigensystem(gc.OperatorSpec(c4, "none"))
    assert np.allclose(es_c4.values, [0.0, 1.0, 1.0, 2.0], atol=1e-10)
    es_k4 = gc.eigensystem(gc.OperatorSpec(k4, "none"))
    assert np.allclose(es_k4.values, [0.0] + [4.0 / 3.0] * 3, atol=1e-10)
    w = gc.build_window(p5, ["b", "c", "d"])
    es_w = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(es_w.values, [1.0 - r, 1.0, 1.0 + r], atol=1e-10)


def test_neumann_extension_is_interior_neighbor_mean(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    es = gc.eigensystem(gc.OperatorSpec(w, "neumann"))
    for f in es.functions:
        assert f.value("a") == pytest.approx(f.value("b"), abs=1e-14)
        assert f.value("e") == pytest.approx(f.value("d"), abs=1e-14)


def test_eigensystem_vectors_read_only_and_match_functions():
    rng = gc.Lcg64(43)
    for name, make in FIXTURES.items():
        g = make()
        for q in _potentials(g, rng):
            for spec in _specs_for(g, gc.DEFAULT_CONFIG, q):
                es = gc.eigensystem(spec)
                closure = spec.interior + spec.boundary
                assert es.vectors.shape == (len(closure), len(es))
                assert not es.vectors.flags.writeable
                with pytest.raises(ValueError):
                    es.vectors[0, 0] = 1.0
                for k, phi in enumerate(es.functions):
                    assert set(phi.domain) == set(closure)
                    got = np.array([phi.values[x] for x in closure])
                    assert got.tobytes() == es.vectors[:, k].tobytes(), (name, spec.bc, k)


def test_rayleigh_quotient(c4):
    spec = gc.OperatorSpec(c4, "none")
    f = gc.VertexFunction(c4, {"v0": 1.0, "v1": 0.0, "v2": -1.0, "v3": 0.0})
    assert gc.rayleigh_quotient(f, spec) == pytest.approx(1.0, abs=1e-14)
    zero = gc.VertexFunction(c4, {v: 0.0 for v in c4.vertices})
    with pytest.raises(gc.ValidationError):
        gc.rayleigh_quotient(zero, spec)


@pytest.mark.parametrize("s", [1e-170, 5e-324])
def test_rayleigh_quotient_of_a_tiny_function_is_its_scaled_quotient(p5, s):
    # the squares underflow, so the weighted norm reads 0 and the quotient
    # used to call the function "the zero function"; the quotient scales the
    # column by the power of two that brings its largest entry into [1/2, 1)
    spec = gc.OperatorSpec(gc.build_window(p5, ["b", "c", "d"]), "dirichlet")

    def tent(t):
        return gc.VertexFunction(p5, dict(zip("abcde", (0.0, t, 2 * t, t, 0.0))))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = gc.rayleigh_quotient(tent(s), spec)
    scaled = math.ldexp(s, -math.frexp(2 * s)[1])
    assert q == gc.rayleigh_quotient(tent(scaled), spec)
    assert q == pytest.approx(1 / 3, rel=1e-15)
    # in a stack, the other columns keep their bits
    rows = np.array([[s, 1.0, 3.0], [2 * s, 2.0, -1.0], [s, 1.0, 0.5]])
    singles = [spectral._quotients(spec, rows[:, j : j + 1])[0] for j in (1, 2)]
    assert spectral._quotients(spec, rows).tolist() == [q, *singles]


def test_rayleigh_bounded_by_spectrum():
    rng = gc.Lcg64(19)
    for name, make in FIXTURES.items():
        g = make()
        spec = gc.OperatorSpec(g, "none")
        es = gc.eigensystem(spec)
        for _ in range(20):
            f = gc.random_function(g, rng)
            rq = gc.rayleigh_quotient(f, spec)
            assert es.values[0] - 1e-10 <= rq <= es.values[-1] + 1e-10, name


def test_courant_fischer_all_indices(p5, c4):
    w = gc.build_window(p5, ["b", "c", "d"])
    for spec in (gc.OperatorSpec(w, "dirichlet"), gc.OperatorSpec(c4, "none")):
        es = gc.eigensystem(spec)
        for j in range(1, len(es) + 1):
            rep = gc.courant_fischer_check(es, j, seed=1, samples=60, subspaces=20)
            assert abs(rep.span_gap) <= 1e-9, (spec.bc, j)
            assert rep.subspace_worst_excess >= -1e-9, (spec.bc, j)
            assert rep.lambda_j == es.values[j - 1]


def test_courant_fischer_validation_and_determinism(c4):
    es = gc.eigensystem(gc.OperatorSpec(c4, "none"))
    with pytest.raises(gc.ValidationError):
        gc.courant_fischer_check(es, 0)
    with pytest.raises(gc.ValidationError):
        gc.courant_fischer_check(es, 5)
    a = gc.courant_fischer_check(es, 2, seed=9, samples=30, subspaces=10)
    b = gc.courant_fischer_check(es, 2, seed=9, samples=30, subspaces=10)
    assert a == b


def _positive_ground_state(es):
    phi = es.functions[0]
    interior = es.spec.interior
    sign = 1.0 if phi.value(interior[0]) > 0 else -1.0
    values = {v: sign * phi.value(v) for v in phi.domain}
    return gc.VertexFunction(es.spec.graph, values)


def test_barta_equality_at_ground_state():
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        spec = gc.OperatorSpec(w, "dirichlet", 0.3)
        es = gc.eigensystem(spec)
        u = _positive_ground_state(es)
        got = gc.barta_bound(w, 0.3, u)
        assert got == pytest.approx(es.values[0], abs=1e-8), name


def test_barta_lower_bound_random():
    rng = gc.Lcg64(23)
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
        for _ in range(30):
            vals = {v: 0.0 for v in w.boundary}
            for v in w.interior:
                vals[v] = rng.uniform(0.1, 2.0)
            u = gc.VertexFunction(g, vals)
            assert gc.barta_bound(w, None, u) <= es.values[0] + 1e-10, name


def test_barta_positivity_validation(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    u = gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": -1.0, "d": 1.0, "e": 0.0})
    with pytest.raises(gc.ValidationError):
        gc.barta_bound(w, None, u)


def test_barta_refuses_a_ratio_past_the_float_range():
    # u = 1e308 inside and -1e308 on the boundary: each laplacian is -inf,
    # so every ratio is inf or nan; min(best, nan) skipped the nan and the
    # bound came out +inf
    g = grid_graph(4)
    w = gc.build_window(g, grid_interior(4))
    u = gc.VertexFunction(g, {x: 1e308 if x in w.interior else -1e308 for x in g.vertices})
    want = "^barta bound overflowed: value at 'r1c1' is not finite$"
    for q in (0.0, -1.0, -1e308):
        with pytest.raises(gc.NumericalError, match=want):
            gc.barta_bound(w, q, u)
    unit = gc.VertexFunction(g, {x: 1.0 if x in w.interior else -1.0 for x in g.vertices})
    assert [gc.barta_bound(w, q, unit) for q in (0.0, -1.0, -1e308)] == [1.0, 0.0, -1e308]


def test_heat_kernel_frozen_p3(p3):
    w = gc.build_window(p3, ["b"])
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    hk = gc.HeatKernel(es)
    for t in (0.0, 0.1, 0.5, 1.0, 2.0):
        assert hk.value(t, "b", "b") == pytest.approx(math.exp(-t) / 2.0, abs=1e-12)
    assert gc.HeatKernel(es).value(1.0, "b", "b") == hk.value(1.0, "b", "b")


def test_heat_kernel_overflow_is_numerical_error(p3):
    # exp(-lambda t) = exp(999) is past the float range; value and matrix
    # used to return inf with a numpy overflow warning
    w = gc.build_window(p3, ["b"])
    hk = gc.HeatKernel(gc.eigensystem(gc.OperatorSpec(w, "dirichlet", -1000.0)))
    f = gc.VertexFunction(p3, {"b": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gc.NumericalError, match="^heat kernel overflowed"):
            hk.value(1.0, "b", "b")
        with pytest.raises(gc.NumericalError, match="^heat kernel overflowed"):
            hk.matrix(1.0)
        with pytest.raises(gc.NumericalError, match="value at 'b' is not finite$"):
            hk.apply(1.0, f)
        assert hk.value(0.5, "b", "b") == pytest.approx(math.exp(499.5) / 2.0, rel=1e-12)


def test_heat_kernel_symmetry_and_semigroup(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    hk = gc.HeatKernel(es)
    deg = np.array([p5.degree(v) for v in w.interior], dtype=float)
    for t in (0.1, 0.5, 1.0):
        M = hk.matrix(t)
        assert np.allclose(M, M.T, atol=1e-14)
        for s in (0.1, 0.5, 1.0):
            comp = hk.matrix(t) @ np.diag(deg) @ hk.matrix(s)
            assert np.allclose(comp, hk.matrix(t + s), atol=1e-12), (t, s)


def test_heat_kernel_reconstruction_and_validation(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    hk = gc.HeatKernel(es)
    rng = gc.Lcg64(29)
    for _ in range(10):
        vals = {v: rng.uniform(-1.0, 1.0) for v in w.interior}
        f = gc.VertexFunction(p5, vals)
        back = hk.apply(0.0, f)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)
        for b in w.boundary:
            assert back.value(b) == 0.0
    f = gc.VertexFunction(p5, {v: 1.0 for v in w.interior})
    for t in (-0.5, math.nan):
        for call in (lambda: hk.matrix(t), lambda: hk.value(t, "b", "c"), lambda: hk.apply(t, f)):
            with pytest.raises(gc.ValidationError, match="heat kernel needs t >= 0"):
                call()
        # the interior check comes before the time check
        with pytest.raises(gc.DomainError):
            hk.value(t, "a", "b")
    with pytest.raises(gc.DomainError):
        hk.value(1.0, "a", "b")


def test_heat_kernel_solves_heat_equation(p5):
    # d/dt (S_t f) = -(L S_t f), checked with a centered difference
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    es = gc.eigensystem(spec)
    hk = gc.HeatKernel(es)
    f = gc.VertexFunction(p5, {"b": 1.0, "c": -0.5, "d": 0.25})
    t, eps = 0.7, 1e-5
    mid = hk.apply(t, f)
    plus = hk.apply(t + eps, f)
    minus = hk.apply(t - eps, f)
    lmid = gc.apply_operator(spec, mid)
    for v in w.interior:
        ddt = (plus.value(v) - minus.value(v)) / (2 * eps)
        assert ddt == pytest.approx(-lmid.value(v), abs=1e-8)


def test_green_function_frozen_and_inverse(p3, p5):
    w3 = gc.build_window(p3, ["b"])
    es3 = gc.eigensystem(gc.OperatorSpec(w3, "dirichlet"))
    assert gc.GreenFunction(es3).value("b", "b") == pytest.approx(0.5, abs=1e-14)

    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet", 0.2)
    gf = gc.GreenFunction(gc.eigensystem(spec))
    rng = gc.Lcg64(31)
    for _ in range(10):
        f = gc.VertexFunction(p5, {v: rng.uniform(-1.0, 1.0) for v in w.interior})
        u = gf.apply(f)
        back = gc.apply_operator(spec, u)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)

    # neumann: the solution extends to the boundary by the reflection rule
    spec = gc.OperatorSpec(w, "neumann", 0.2)
    gf = gc.GreenFunction(gc.eigensystem(spec))
    for _ in range(5):
        f = gc.VertexFunction(p5, {v: rng.uniform(-1.0, 1.0) for v in w.interior})
        u = gf.apply(f)
        back = gc.apply_operator(spec, u)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)
        assert u.value("a") == pytest.approx(u.value("b"), abs=1e-14)
        assert u.value("e") == pytest.approx(u.value("d"), abs=1e-14)


def test_kernel_values_read_two_eigenvector_rows(p5, monkeypatch):
    """HeatKernel.value and GreenFunction.value sum one product of two
    eigenvector rows: no kernel matrix is built, and each entry agrees with
    the matrix entry to 1e-15."""
    w = gc.build_window(p5, ["b", "c", "d"])
    cases = []
    for bc in ("dirichlet", "neumann"):
        es = gc.eigensystem(gc.OperatorSpec(w, bc, 0.2))
        hk, phi = gc.HeatKernel(es), es.vectors[:3]
        heat = {t: hk.matrix(t) for t in (0.0, 0.3, 2.0)}
        green = phi @ np.diag(1.0 / np.array(es.values)) @ phi.T
        cases.append((hk, gc.GreenFunction(es), heat, green))

    def no_matrix(self, t):
        raise AssertionError("value built the kernel matrix")

    monkeypatch.setattr(gc.HeatKernel, "matrix", no_matrix)
    for hk, gf, heat, green in cases:
        for i, x in enumerate(w.interior):
            for j, y in enumerate(w.interior):
                for t, m in heat.items():
                    assert abs(hk.value(t, x, y) - m[i, j]) <= 1e-15
                assert abs(gf.value(x, y) - green[i, j]) <= 1e-15
        assert not [v for v in vars(gf).values() if np.ndim(v) == 2]
    with pytest.raises(gc.DomainError, match="green function is defined on the interior"):
        gf.value("a", "b")
    with pytest.raises(gc.DomainError, match="heat kernel is defined on the interior"):
        hk.value(-1.0, "b", "e")
    with pytest.raises(gc.ValidationError, match="t >= 0"):
        hk.value(-1.0, "b", "c")


def test_green_function_rejects_nonpositive_spectrum(c4):
    es = gc.eigensystem(gc.OperatorSpec(c4, "none"))
    with pytest.raises(gc.NonpositiveSpectrumError) as exc:
        gc.GreenFunction(es)
    assert exc.value.index == 1
    assert exc.value.value == pytest.approx(0.0, abs=1e-12)


def test_eigh_agrees_with_lapack():
    rng = gc.Lcg64(37)
    for n in (0, 1, 2, 3, 8, 50):
        A = np.array([[rng.normal() for _ in range(n)] for _ in range(n)]).reshape(n, n)
        A = 0.5 * (A + A.T)
        vals, vecs = gc.eigh(A)
        assert vals.shape == (n,) and vecs.shape == (n, n)
        assert np.array_equal(gc.eigvalsh(A), vals)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.allclose(vals, eig_oracle(A), atol=1e-10)
        assert np.allclose(A @ vecs, vecs @ np.diag(vals), atol=1e-10)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)


# --- the array operator against its pointwise reference -------------------


def _bits(values):
    return [float(v).hex() for v in values]


def _reference_specs():
    """Every fixture with its canonical window and the 4 x 4 and 7 x 7 grids
    with the window off their outer ring, at laplacian scale 1 or 2/3: bc
    none, dirichlet and neumann, each with no potential, a constant one and
    a vertex function."""
    rng = gc.Lcg64(61)
    regions = [(make(), None) for make in FIXTURES.values()]
    regions += [(grid_graph(k), grid_interior(k)) for k in (4, 7)]
    for n, (g, interior) in enumerate(regions):
        w = gc.canonical_window(g) if interior is None else gc.build_window(g, interior)
        cfg = gc.CalculusConfig(laplacian_scale=SCALES[n % 2])
        for potential in _potentials(g, rng):
            yield gc.OperatorSpec(g, "none", potential, cfg)
            yield gc.OperatorSpec(w, "dirichlet", potential, cfg)
            yield gc.OperatorSpec(w, "neumann", potential, cfg)


def _test_function(spec, rng, signed_zeros=False):
    """Random interior values; boundary values the bc ignores (random for
    neumann, signed zeros for dirichlet).  signed_zeros puts 0.0 and -0.0 at
    some interior vertices too."""
    values = {x: rng.uniform(-1.0, 1.0) for x in spec.interior}
    if signed_zeros:
        for i, x in enumerate(spec.interior[::2]):
            values[x] = -0.0 if i % 2 else 0.0
    for i, b in enumerate(spec.boundary):
        values[b] = rng.uniform(-1.0, 1.0) if spec.bc == "neumann" else (-0.0 if i % 2 else 0.0)
    return gc.VertexFunction(spec.graph, values)


def _assert_operator_matches_reference(spec, f):
    got, want = gc.apply_operator(spec, f), pointwise_apply_operator(spec, f)
    assert list(got.values) == list(want.values)
    assert _bits(got.values.values()) == _bits(want.values.values()), spec.bc
    if any(f.values[x] != 0.0 for x in spec.interior):
        got_rq = gc.rayleigh_quotient(f, spec)
        assert type(got_rq) is float
        assert got_rq.hex() == pointwise_rayleigh_quotient(f, spec).hex(), spec.bc


def _assert_courant_fischer_matches_reference(es, j, **kw):
    got = gc.courant_fischer_check(es, j, **kw)
    want = pointwise_courant_fischer(es, j, **kw)
    assert _bits([got.lambda_j, got.span_max, got.span_gap]) == _bits(
        [want.lambda_j, want.span_max, want.span_gap]
    ), (es.spec.bc, j)
    assert (got.j, got.samples, got.subspaces, got.seed) == (want.j, want.samples, want.subspaces, want.seed)
    if math.isinf(want.subspace_worst_excess):
        assert got.subspace_worst_excess == want.subspace_worst_excess
    else:
        assert abs(got.subspace_worst_excess - want.subspace_worst_excess) <= 1e-12, (es.spec.bc, j)


def test_operator_and_quotient_match_pointwise_reference():
    rng = gc.Lcg64(67)
    for spec in _reference_specs():
        for signed_zeros in (False, True):
            _assert_operator_matches_reference(spec, _test_function(spec, rng, signed_zeros))


def test_courant_fischer_matches_pointwise_reference():
    for spec in _reference_specs():
        es = gc.eigensystem(spec)
        for j in sorted({1, min(3, len(es)), len(es)}):
            _assert_courant_fischer_matches_reference(es, j, seed=7, samples=12, subspaces=4)


def _assert_courant_fischer_matches_loop(es, j, **kw):
    got, want = gc.courant_fischer_check(es, j, **kw), looped_courant_fischer(es, j, **kw)
    assert repr(got) == repr(want), (es.spec.bc, j, kw)
    return got


def test_courant_fischer_matches_looped_reference_bit_for_bit():
    # the fixtures and the grid windows under every bc and potential, with
    # j = 1, 3 and k (the interior size), several seeds, and no samples or
    # no subspaces
    for spec in _reference_specs():
        es = gc.eigensystem(spec)
        for j in sorted({1, min(3, len(es)), len(es)}):
            for seed in (1, 2, 5):
                _assert_courant_fischer_matches_loop(es, j, seed=seed, samples=9, subspaces=5)
            rep = _assert_courant_fischer_matches_loop(es, j, seed=3, samples=0, subspaces=0)
            assert rep.subspace_worst_excess == math.inf


def test_courant_fischer_subspace_groups_match_looped_reference(monkeypatch):
    # EXPAND_CHUNK bounds each group's (k, m, j, j) Gram product: at 1 each
    # subspace is a group of its own, 2 k j^2 and one more make groups of
    # two, and 7 k j^2 - 1 groups of six, so 13 subspaces end in a short group
    for g, interior in ((grid_graph(4), grid_interior(4)), (grid_graph(5), grid_interior(5))):
        w = gc.build_window(g, interior)
        for bc in ("dirichlet", "neumann"):
            es = gc.eigensystem(gc.OperatorSpec(w, bc, 0.4))
            k = len(es)
            for j in (1, 2, k):
                for chunk in (1, 2 * k * j * j, 2 * k * j * j + 1, 7 * k * j * j - 1):
                    monkeypatch.setattr(spectral, "EXPAND_CHUNK", chunk)
                    for n in (1, 2, 3, 13):
                        _assert_courant_fischer_matches_loop(es, j, seed=n, samples=4, subspaces=n)


def test_courant_fischer_drops_rank_deficient_subspaces_as_the_loop_skips_them(monkeypatch):
    # normals rounded to whole numbers make many subspaces rank-deficient;
    # in groups of one subspace, a dropped one leaves its group empty
    normals = gc.Lcg64.normals
    monkeypatch.setattr(gc.Lcg64, "normals", lambda self, k: [float(round(x)) for x in normals(self, k)])
    ranks = []

    def orthonormalize(B):
        norms = gc.linalg.orthonormalize(B)
        ranks.extend((norms >= 1e-8).sum(axis=1).tolist())
        return norms

    monkeypatch.setattr(spectral, "orthonormalize", orthonormalize)
    dropped, total = {1: 0, 1 << 20: 0}, 0
    for make in FIXTURES.values():
        w = gc.canonical_window(make())
        for bc in ("dirichlet", "neumann"):
            es = gc.eigensystem(gc.OperatorSpec(w, bc))
            for j in sorted({1, len(es)}):
                for chunk in (1, 1 << 20):
                    monkeypatch.setattr(spectral, "EXPAND_CHUNK", chunk)
                    ranks.clear()
                    _assert_courant_fischer_matches_loop(es, j, seed=j, samples=2, subspaces=12)
                    assert len(ranks) == 12
                    dropped[chunk] += sum(r < j for r in ranks)
                total += 12
    assert 0 < dropped[1] == dropped[1 << 20] < total


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    connected_graphs(),
    st.sampled_from(gc.spectral.BOUNDARY_CONDITIONS),
    st.sampled_from(("none", "constant", "function")),
    st.integers(0, 2**32),
)
def test_operator_and_courant_fischer_match_pointwise_reference_property(g, bc, kind, seed):
    rng = gc.Lcg64(seed)
    potential = {
        "none": None,
        "constant": rng.uniform(-1.0, 2.0),
        "function": gc.VertexFunction(g, {v: rng.uniform(-1.0, 2.0) for v in g.vertices}),
    }[kind]
    region = g if bc == "none" else gc.canonical_window(g)
    spec = gc.OperatorSpec(region, bc, potential)
    _assert_operator_matches_reference(spec, _test_function(spec, rng))
    es = gc.eigensystem(spec)
    j = 1 + rng.randint(len(es))
    _assert_courant_fischer_matches_reference(es, j, seed=seed, samples=10, subspaces=3)


def _raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the test compares whatever is raised
        return type(exc), str(exc)
    return None


def test_operator_error_paths_match_pointwise_reference(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    cases = {
        "zero": gc.VertexFunction(p5, {"b": 0.0, "c": -0.0, "d": 0.0}),
        "zero with boundary data": gc.VertexFunction(p5, {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.0}),
        "boundary data": gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": 0.5, "d": 1.0, "e": -0.25}),
        "missing interior vertex": gc.VertexFunction(p5, {"b": 1.0, "d": 1.0}),
    }
    expected = {
        "zero": (gc.ValidationError, "rayleigh quotient of the zero function"),
        "zero with boundary data": (gc.ValidationError, "rayleigh quotient of the zero function"),
        "boundary data": (
            gc.ValidationError,
            "dirichlet data must vanish on the boundary, f(e) = -0.25",
        ),
        "missing interior vertex": (gc.DomainError, "function not defined at 'c'"),
    }
    for name, f in cases.items():
        got = _raised(gc.rayleigh_quotient, f, spec)
        assert got == _raised(pointwise_rayleigh_quotient, f, spec) == expected[name], name
        if name != "zero":
            want = _raised(pointwise_apply_operator, spec, f)
            assert want is not None, name
            assert _raised(gc.apply_operator, spec, f) == want, name
    # a vertex with no neighbor has no laplacian stencil
    g = gc.Graph(["a", "b", "z"], [("a", "b")])
    lonely = gc.OperatorSpec(g, "none", 0.5)
    f = gc.VertexFunction(g, {"a": 1.0, "b": -1.0, "z": 2.0})
    want = (gc.ValidationError, "vertex 'z' is isolated")
    assert _raised(gc.apply_operator, lonely, f) == _raised(pointwise_apply_operator, lonely, f) == want
    assert _raised(gc.rayleigh_quotient, f, lonely) == _raised(pointwise_rayleigh_quotient, f, lonely) == want


def test_rayleigh_quotient_and_operator_overflow_are_numerical_errors(p5):
    # the quotient used to return nan with overflow and invalid-divide
    # warnings, and the operator reported its overflow as bad input
    # (ValidationError "value at 'b' is not finite: inf") after a warning
    spec = gc.OperatorSpec(gc.build_window(p5, ["b", "c", "d"]), "dirichlet")

    def alternating(big):
        return gc.VertexFunction(p5, dict(zip("abcde", (0.0, big, -big, big, 0.0))))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gc.NumericalError, match="^rayleigh quotient overflowed"):
            gc.rayleigh_quotient(alternating(1e160), spec)
        with pytest.raises(gc.NumericalError) as caught:
            gc.apply_operator(spec, alternating(1e308))
    assert str(caught.value) == "operator overflowed: value at 'b' is not finite"


def test_eigensolve_rejects_an_isolated_interior_vertex():
    # its row of the degree-conjugated matrix would divide by a zero degree
    g = gc.Graph(["a", "b", "c"], [("a", "b")])
    calls = (
        lambda: gc.eigensystem(gc.OperatorSpec(g, "none")),
        lambda: gc.poincare_dirichlet_constant(gc.build_window(g, ["c"])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy divide warning would fail here
        for call in calls:
            with pytest.raises(gc.ValidationError, match="^vertex 'c' is isolated$"):
                call()
