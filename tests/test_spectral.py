import math

import numpy as np
import pytest

import graphcalc as gc

from conftest import FIXTURES
from helpers import eig_oracle

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


def test_heat_kernel_frozen_p3(p3):
    w = gc.build_window(p3, ["b"])
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    hk = gc.heat_kernel(es)
    for t in (0.0, 0.1, 0.5, 1.0, 2.0):
        assert hk.value(t, "b", "b") == pytest.approx(math.exp(-t) / 2.0, abs=1e-12)
    assert gc.heat_kernel_eval(es, 1.0, "b", "b") == hk.value(1.0, "b", "b")


def test_heat_kernel_symmetry_and_semigroup(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    hk = gc.heat_kernel(es)
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
    hk = gc.heat_kernel(es)
    rng = gc.Lcg64(29)
    for _ in range(10):
        vals = {v: rng.uniform(-1.0, 1.0) for v in w.interior}
        f = gc.VertexFunction(p5, vals)
        back = hk.apply(0.0, f)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)
        for b in w.boundary:
            assert back.value(b) == 0.0
    with pytest.raises(gc.ValidationError):
        hk.matrix(-0.5)
    with pytest.raises(gc.DomainError):
        hk.value(1.0, "a", "b")


def test_heat_kernel_solves_heat_equation(p5):
    # d/dt (S_t f) = -(L S_t f), checked with a centered difference
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    es = gc.eigensystem(spec)
    hk = gc.heat_kernel(es)
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
    assert gc.green_function(es3).value("b", "b") == pytest.approx(0.5, abs=1e-14)

    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet", 0.2)
    gf = gc.green_function(gc.eigensystem(spec))
    rng = gc.Lcg64(31)
    for _ in range(10):
        f = gc.VertexFunction(p5, {v: rng.uniform(-1.0, 1.0) for v in w.interior})
        u = gf.apply(f)
        back = gc.apply_operator(spec, u)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)

    # neumann: the solution extends to the boundary by the reflection rule
    spec = gc.OperatorSpec(w, "neumann", 0.2)
    gf = gc.green_function(gc.eigensystem(spec))
    for _ in range(5):
        f = gc.VertexFunction(p5, {v: rng.uniform(-1.0, 1.0) for v in w.interior})
        u = gf.apply(f)
        back = gc.apply_operator(spec, u)
        for v in w.interior:
            assert back.value(v) == pytest.approx(f.value(v), abs=1e-12)
        assert u.value("a") == pytest.approx(u.value("b"), abs=1e-14)
        assert u.value("e") == pytest.approx(u.value("d"), abs=1e-14)


def test_green_function_rejects_nonpositive_spectrum(c4):
    es = gc.eigensystem(gc.OperatorSpec(c4, "none"))
    with pytest.raises(gc.NonpositiveSpectrumError) as exc:
        gc.green_function(es)
    assert exc.value.index == 1
    assert exc.value.value == pytest.approx(0.0, abs=1e-12)


def test_jacobi_agrees_with_lapack():
    rng = gc.Lcg64(37)
    for n in (2, 3, 5, 8):
        A = np.array([[rng.normal() for _ in range(n)] for _ in range(n)])
        A = 0.5 * (A + A.T)
        vals, vecs = gc.sorted_eigh(A)
        assert np.allclose(vals, eig_oracle(A), atol=1e-10)
        assert np.allclose(A @ vecs, vecs @ np.diag(vals), atol=1e-10)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
