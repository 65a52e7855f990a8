import dataclasses
import math
import warnings

import numpy as np
import pytest

import graphcalc as gc
from graphcalc import spectral

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import (
    connected_graphs,
    grid_graph,
    grid_interior,
    pointwise_dmf_certificate,
    pointwise_heat_identities_report,
    reference_mass_rate,
    reference_transport_states,
    random_connected_graph,
    rowwise_heat,
)


def grid(t_final, n):
    return [k * t_final / n for k in range(n + 1)]


def test_trajectory_validation(p3):
    f = gc.VertexFunction(p3, {v: 0.0 for v in p3.vertices})
    with pytest.raises(gc.ValidationError):
        gc.Trajectory((0.0, 1.0), (f,), "test")
    with pytest.raises(gc.ValidationError):
        gc.Trajectory((0.5, 1.0), (f, f), "test")
    with pytest.raises(gc.ValidationError):
        gc.Trajectory((0.0, 1.0, 1.0), (f, f, f), "test")
    traj = gc.Trajectory((0.0, 1.0), (f, f), "test")
    assert traj.state_at(1.0) is traj.states[1]
    with pytest.raises(gc.ValidationError):
        traj.state_at(0.25)


def test_spectral_heat_frozen_p3(p3):
    w = gc.build_window(p3, ["b"])
    spec = gc.OperatorSpec(w, "dirichlet")
    f = gc.VertexFunction(p3, {"b": 1.0})
    traj = gc.spectral_heat_solve(spec, f, [0.0, 0.5, 1.0])
    for t, u in zip(traj.times, traj.states):
        assert u.value("b") == pytest.approx(math.exp(-t), abs=1e-14)
        assert u.value("a") == 0.0 and u.value("c") == 0.0


def test_spectral_heat_rejects_nonzero_dirichlet_boundary(p3):
    w = gc.build_window(p3, ["b"])
    spec = gc.OperatorSpec(w, "dirichlet")
    bad = gc.VertexFunction(p3, {"a": 0.5, "b": 1.0, "c": 0.0})
    with pytest.raises(gc.ValidationError):
        gc.spectral_heat_solve(spec, bad, [0.0, 1.0])


def test_spectral_heat_overflow_is_numerical_error(p3):
    # lambda_1 = 1 - 1000, so exp(-lambda_1 t) leaves the float range by t = 1
    w = gc.build_window(p3, ["b"])
    spec = gc.OperatorSpec(w, "dirichlet", -1000.0)
    f = gc.VertexFunction(p3, {"b": 1.0})
    with pytest.raises(gc.NumericalError, match="value at 'b' is not finite"):
        gc.spectral_heat_solve(spec, f, [0.0, 0.5, 1.0])
    assert gc.spectral_heat_solve(spec, f, [0.0, 0.5]).states[1].value("b") > 1e200


def test_spectral_heat_matches_heat_kernel(p5):
    # one expansion serves both: equal bit for bit on the whole closure
    w = gc.build_window(p5, ["b", "c", "d"])
    f = gc.VertexFunction(p5, {"b": 1.0, "c": -2.0, "d": 0.5})
    times = [0.0, 0.3, 0.5, 1.1]
    for bc in ("dirichlet", "neumann"):
        spec = gc.OperatorSpec(w, bc)
        traj = gc.spectral_heat_solve(spec, f, times)
        hk = gc.HeatKernel(gc.eigensystem(spec))
        for t, u in zip(times, traj.states):
            want = hk.apply(t, f)
            assert u.domain == want.domain == p5.vertices
            for v in w.closure:
                assert u.value(v).hex() == want.value(v).hex(), (bc, t, v)


def test_spectral_heat_matches_rowwise_expansion_bit_for_bit(monkeypatch):
    # all times expanded together, in one chunk or in several, equal the
    # expansion one time at a time
    times = [k / 7 for k in range(11)]
    cases = []
    for k in (4, 7):
        g = grid_graph(k)
        w = gc.build_window(g, grid_interior(k))
        rng = gc.Lcg64(61 + k)
        f = gc.VertexFunction(g, {v: rng.uniform(-1.0, 1.0) for v in g.vertices})
        fw = f.restrict(w.interior)
        cases += [(gc.OperatorSpec(g, "none", 0.3), f)]
        cases += [(gc.OperatorSpec(w, bc), fw) for bc in ("dirichlet", "neumann")]
    for chunk in (spectral.EXPAND_CHUNK, 1, 3 * 49 * 49 - 1):
        monkeypatch.setattr(spectral, "EXPAND_CHUNK", chunk)
        for spec, f in cases:
            es = gc.eigensystem(spec)
            got = gc.spectral_heat_solve(spec, f, times).states
            for u, want in zip(got, rowwise_heat(es, f, times)):
                assert u.domain == want.domain
                assert [v.hex() for v in u.values.values()] == [
                    v.hex() for v in want.values.values()
                ], (chunk, spec.bc)


def _expm_heat(spec, f, t):
    """exp(-tL) f on the closure, L = I - D^-1 A assembled here from the edges."""
    from scipy.linalg import expm

    g = spec.graph
    inner = list(spec.interior)
    pos = {v: i for i, v in enumerate(inner)}

    def inner_nbrs(b):
        return [pos[z] for z in g.neighbors(b) if z in pos]

    L = np.eye(len(inner))
    for x in inner:
        d = g.degree(x)
        for y in g.neighbors(x):
            if y in pos:
                L[pos[x], pos[y]] -= 1.0 / d
            elif spec.bc == "neumann":
                for j in inner_nbrs(y):
                    L[pos[x], j] -= 1.0 / (d * len(inner_nbrs(y)))
    u = expm(-t * L) @ np.array([f.value(x) for x in inner])
    out = dict(zip(inner, u))
    for b in spec.boundary:
        out[b] = np.mean(u[inner_nbrs(b)]) if spec.bc == "neumann" else 0.0
    return out


def test_spectral_heat_matches_expm(grid4):
    # boundary r2c2 has two interior neighbors, so neumann takes a real mean
    w = gc.build_window(grid4, ["r1c1", "r1c2", "r2c1", "r1c0"])
    rng = gc.Lcg64(41)
    f = gc.VertexFunction(grid4, {v: rng.uniform(-1.0, 1.0) for v in w.interior})
    times = [0.0, 0.25, 1.0, 3.0]
    for bc in ("dirichlet", "neumann"):
        spec = gc.OperatorSpec(w, bc)
        traj = gc.spectral_heat_solve(spec, f, times)
        for t, u in zip(times, traj.states):
            want = _expm_heat(spec, f, t)
            assert set(u.domain) == set(w.closure)
            for v in w.closure:
                assert abs(u.value(v) - want[v]) <= 1e-12, (bc, t, v)


def test_heat_identities_dirichlet(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    f = gc.VertexFunction(p5, {"b": 1.0, "c": -0.5, "d": 0.25})
    traj = gc.spectral_heat_solve(spec, f, grid(1.0, 100))
    rep = gc.heat_identities_report(traj, spec)
    assert rep.bc == "dirichlet"
    assert rep.step == pytest.approx(0.01)
    assert rep.quad_tol == pytest.approx(1e-4)
    # residual bound = quad_tol times the integrand curvature constant
    curv = 8.0 * max(gc.eigensystem(spec).values) ** 3 * rep.initial_mass
    assert rep.max_ddt_residual <= curv * rep.quad_tol
    assert rep.energy_monotone
    assert rep.max_energy_increase <= 1e-12
    assert rep.conservation_residual <= curv * rep.quad_tol
    assert rep.energy_flux_residual <= curv * rep.quad_tol
    assert rep.closure_form_gap <= 1e-12
    assert rep.final_mass < rep.initial_mass


def test_heat_identities_residuals_are_second_order(p5):
    # same trajectory at half the step: every quadrature residual near-quarters
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    f = gc.VertexFunction(p5, {"b": 1.0, "c": -0.5, "d": 0.25})
    coarse = gc.heat_identities_report(
        gc.spectral_heat_solve(spec, f, grid(1.0, 100)), spec
    )
    fine = gc.heat_identities_report(
        gc.spectral_heat_solve(spec, f, grid(1.0, 200)), spec
    )
    for field in ("max_ddt_residual", "conservation_residual", "energy_flux_residual"):
        ratio = getattr(coarse, field) / getattr(fine, field)
        assert 3.3 <= ratio <= 4.7, (field, ratio)


def test_heat_identities_whole_graph(c4):
    spec = gc.OperatorSpec(c4, "none")
    f = gc.VertexFunction(c4, {"v0": 1.0, "v1": 0.0, "v2": -1.0, "v3": 0.5})
    traj = gc.spectral_heat_solve(spec, f, grid(1.0, 100))
    rep = gc.heat_identities_report(traj, spec)
    assert rep.closure_form_gap <= 1e-12
    curv = 8.0 * max(gc.eigensystem(spec).values) ** 3 * rep.initial_mass
    assert rep.max_ddt_residual <= curv * rep.quad_tol
    assert rep.energy_monotone


def test_heat_identities_neumann_reports_gap(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "neumann")
    f = gc.VertexFunction(p5, {"b": 1.0, "c": -0.5, "d": 0.25})
    traj = gc.spectral_heat_solve(spec, f, grid(1.0, 100))
    rep = gc.heat_identities_report(traj, spec)
    curv = 8.0 * max(gc.eigensystem(spec).values) ** 3 * rep.initial_mass
    assert rep.max_ddt_residual <= curv * rep.quad_tol
    assert rep.closure_form_gap >= 0.0
    assert math.isfinite(rep.closure_form_gap)


def test_heat_identities_grid_validation(p3):
    w = gc.build_window(p3, ["b"])
    spec = gc.OperatorSpec(w, "dirichlet")
    f = gc.VertexFunction(p3, {"b": 1.0})
    coarse = gc.spectral_heat_solve(spec, f, [0.0, 0.5, 1.0])
    with pytest.raises(gc.ValidationError):
        gc.heat_identities_report(coarse, spec)  # step above the cap
    ragged = gc.spectral_heat_solve(spec, f, [0.0, 0.004, 0.01])
    with pytest.raises(gc.ValidationError):
        gc.heat_identities_report(ragged, spec)
    short = gc.spectral_heat_solve(spec, f, [0.0, 0.01])
    with pytest.raises(gc.ValidationError):
        gc.heat_identities_report(short, spec)


def k2_unit_field(k2):
    return gc.VectorField(k2, {("a", "b"): 1.0, ("b", "a"): -1.0})


def test_transport_k2_exact(k2):
    w = k2_unit_field(k2)
    f0 = gc.VertexFunction(k2, {"a": 0.0, "b": 1.0})
    traj = gc.transport_solve(k2, w, f0, 1.0, 1e-2)
    assert traj.scheme == "rk4"
    for t, u in zip(traj.times, traj.states):
        assert u.value("a") == pytest.approx(t, abs=1e-10)
        assert u.value("b") == pytest.approx(1.0 + t, abs=1e-10)


def test_transport_mass_rate_k2(k2):
    w = k2_unit_field(k2)
    f0 = gc.VertexFunction(k2, {"a": 0.0, "b": 1.0})
    lhs, rhs = gc.transport_mass_rate(k2, w, f0)
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)


def test_transport_mass_rate_identity_random():
    rng = gc.Lcg64(67)
    for name, make in FIXTURES.items():
        g = make()
        for _ in range(5):
            w = gc.random_antisymmetric_field(g, rng)
            f = gc.random_function(g, rng)
            lhs, rhs = gc.transport_mass_rate(g, w, f)
            assert lhs == pytest.approx(rhs, abs=1e-12), name


@pytest.mark.parametrize("k", [4, 6, 10, 20])
def test_transport_mass_rate_sides_differ_only_by_rounding(k):
    # the lhs divides each w(xy) by d_x before the vertex's sum and the rhs
    # divides the sum, so the two sides differ by a few ulps (0 to 4 on these
    # grids); the gap stays under n eps sum|terms| over the n ordered pairs
    g = grid_graph(k)
    for seed in (1, 2, 3):
        rng = gc.Lcg64(seed)
        w = gc.random_antisymmetric_field(g, rng)
        f = gc.random_function(g, rng)
        lhs, rhs = gc.transport_mass_rate(g, w, f)
        terms = [w.value(x, y) * (f.value(y) - f.value(x)) for x in g.vertices for y in g.neighbors(x)]
        assert abs(lhs - rhs) <= len(terms) * 2.0**-52 * sum(map(abs, terms)), seed


@pytest.mark.parametrize("k", [4, 6, 10, 20])
def test_transport_mass_rate_lhs_is_the_pointwise_integral(k):
    # the lhs used np.sum's pairwise order and differed from this reference
    # in the last bits on each of these grids
    g = grid_graph(k)
    rng = gc.Lcg64(2)
    w = gc.random_antisymmetric_field(g, rng)
    f = gc.random_function(g, rng)
    lhs, _ = gc.transport_mass_rate(g, w, f)
    want = 0.0
    for x in g.vertices:
        d, rate = g.degree(x), 0.0
        for y in g.neighbors(x):
            rate += w.value(x, y) / d * (f.value(y) - f.value(x))
        want += rate * d
    assert lhs == want


def c4_wave_field(c4):
    base = {}
    for x, y in c4.edges():
        base[(x, y)] = 1.0
        base[(y, x)] = -1.0
    def field(t):
        scaled = {k: v * (1.0 + 0.5 * math.sin(t)) for k, v in base.items()}
        return gc.VectorField(c4, scaled)
    return field


def test_transport_rk4_self_convergence_order(c4):
    field = c4_wave_field(c4)
    f0 = gc.VertexFunction(c4, {"v0": 1.0, "v1": 0.0, "v2": -1.0, "v3": 0.5})
    finals = []
    for dt in (0.1, 0.05, 0.025):
        traj = gc.transport_solve(c4, field, f0, 1.0, dt)
        finals.append(np.array([traj.states[-1].value(v) for v in c4.vertices]))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = math.log2(e1 / e2)
    assert order >= 3.8, order


def _dense_rk4(g, field_at, f0, t_final, dt):
    """RK4 on the assembled n x n transport matrix, the reference solver."""
    n, idx = len(g), g.index

    def matrix(w):
        m = np.zeros((n, n))
        for x in g.vertices:
            d = g.degree(x)
            for y in g.neighbors(x):
                m[idx[x], idx[y]] += w.value(x, y) / d
                m[idx[x], idx[x]] -= w.value(x, y) / d
        return m

    vec = np.array([f0.value(x) for x in g.vertices])
    states = [vec]
    for k in range(round(t_final / dt)):
        t = k * dt
        m1, m2, m4 = matrix(field_at(t)), matrix(field_at(t + dt / 2)), matrix(field_at(t + dt))
        k1 = m1 @ vec
        k2 = m2 @ (vec + dt / 2 * k1)
        k3 = m2 @ (vec + dt / 2 * k2)
        k4 = m4 @ (vec + dt * k3)
        vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(vec)
    return states


def test_transport_matches_dense_rk4():
    rng = gc.Lcg64(103)
    graphs = [make() for make in FIXTURES.values()] + [random_connected_graph(rng, 6, 12)]
    for g in graphs:
        w1 = gc.random_antisymmetric_field(g, rng)
        w2 = gc.random_antisymmetric_field(g, rng)
        moving = lambda t: gc.VectorField(
            g, {k: math.cos(3.0 * t) * v + t * w2.entries[k] for k, v in w1.entries.items()}
        )
        f0 = gc.random_function(g, rng)
        for field, field_at in ((w1, lambda t: w1), (moving, moving)):
            traj = gc.transport_solve(g, field, f0, 0.5, 0.05)
            want = _dense_rk4(g, field_at, f0, 0.5, 0.05)
            assert len(traj.states) == len(want) == 11
            for state, vec in zip(traj.states, want):
                got = np.array([state.value(x) for x in g.vertices])
                assert np.max(np.abs(got - vec)) <= 1e-13, g.vertices


def test_transport_fixed_field_is_the_constant_callable():
    # one rates rule serves both kinds of field, bit for bit
    rng = gc.Lcg64(109)
    for g in [make() for make in FIXTURES.values()] + [random_connected_graph(rng, 6, 12)]:
        w = gc.random_antisymmetric_field(g, rng)
        f0 = gc.random_function(g, rng)
        runs = [gc.transport_solve(g, field, f0, 1.0, 0.1) for field in (w, lambda t: w)]
        assert runs[0].times == runs[1].times
        bits = [[(list(s.values), [v.hex() for v in s.values.values()]) for s in r.states] for r in runs]
        assert bits[0] == bits[1]


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_transport_equals_the_pair_rates_reference_bit_for_bit(seed):
    # VectorField.pair_values replaced evolution's _PairRates; the states and
    # both mass-rate sides keep its bits for a fixed, a scaled and a fresh field
    rng = gc.Lcg64(seed)
    for g in [make() for make in FIXTURES.values()] + [grid_graph(5)]:
        base = gc.random_antisymmetric_field(g, rng)
        f0 = gc.random_function(g, rng)
        fresh = lambda t: gc.VectorField(g, {k: v * math.cos(t) for k, v in base.entries.items()})
        for field in (base, lambda t: base.scaled(math.sin(t)), fresh):
            traj = gc.transport_solve(g, field, f0, 0.5, 0.05)
            got = np.array([[s.value(x) for x in g.vertices] for s in traj.states])
            assert got.tobytes() == reference_transport_states(g, field, f0, 10, 0.05).tobytes()
        for w in (base, base.scaled(math.sin(0.7)), fresh(0.7)):
            got, want = gc.transport_mass_rate(g, w, f0), reference_mass_rate(g, w, f0)
            assert [v.hex() for v in got] == [v.hex() for v in want]


def test_transport_isolated_vertex_stays_constant():
    g = gc.Graph(["a", "b", "c", "z"], [("a", "b"), ("b", "c")])
    w = gc.random_antisymmetric_field(g, gc.Lcg64(107))
    f0 = gc.VertexFunction(g, {"a": 0.0, "b": 1.0, "c": -0.5, "z": 0.7})
    traj = gc.transport_solve(g, w, f0, 1.0, 0.1)
    assert all(state.value("z") == 0.7 for state in traj.states)
    assert traj.states[-1].value("a") != 0.0


def test_transport_missing_pair_is_domain_error(k2):
    one_way = gc.VectorField(k2, {("a", "b"): 1.0})
    f0 = gc.VertexFunction(k2, {"a": 0.0, "b": 1.0})
    for field in (one_way, lambda t: one_way):
        with pytest.raises(gc.DomainError, match=r"\(b, a\)"):
            gc.transport_solve(k2, field, f0, 1.0, 0.5)
    with pytest.raises(gc.DomainError, match=r"\(b, a\)"):
        gc.transport_mass_rate(k2, one_way, f0)


def test_transport_mass_rate_overflow_is_numerical_error(p5):
    # used to warn "overflow encountered in subtract" and return (nan, nan)
    alt = gc.VertexFunction(p5, dict(zip(p5.vertices, (1e308, -1e308, 1e308, -1e308, 1e308))))
    w = gc.VectorField(p5, {p: 1.0 for x, y in p5.edges() for p in ((x, y), (y, x))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gc.NumericalError, match="^transport mass rate overflowed: a rate is not finite$"):
            gc.transport_mass_rate(p5, w, alt)


def test_vector_field_scaled_matches_revalidated_field():
    rng = gc.Lcg64(109)
    for g in (make() for make in FIXTURES.values()):
        w = gc.random_antisymmetric_field(g, rng)
        for c in (math.sin(0.37), -2.5, 0.0, 1.0 / 3.0):
            got = w.scaled(c)
            want = gc.VectorField(g, {k: c * v for k, v in w.entries.items()})
            assert got.graph is g
            assert list(got.entries) == list(want.entries)
            assert all(type(v) is float for v in got.entries.values())
            got_bits = np.array(list(got.entries.values())).tobytes()
            assert got_bits == np.array(list(want.entries.values())).tobytes()


def test_transport_validation(k2):
    w = k2_unit_field(k2)
    f0 = gc.VertexFunction(k2, {"a": 0.0, "b": 1.0})
    with pytest.raises(gc.ValidationError):
        gc.transport_solve(k2, w, f0, 1.0, 0.3)
    with pytest.raises(gc.ValidationError):
        gc.transport_solve(k2, w, f0, -1.0, 0.1)
    with pytest.raises(gc.ValidationError):
        gc.transport_solve(k2, w, f0, 1.0, 0.0)


def test_dmf_solve_residual_above_tolerance_is_numerical_error(p5, monkeypatch):
    solve = gc.evolution.cholesky_solve
    monkeypatch.setattr(gc.evolution, "cholesky_solve", lambda factor, b: solve(factor, b) * (1 + 1e-9))
    u0 = gc.VertexFunction(p5, {"b": 1.0, "c": 2.0, "d": 1.0})
    with pytest.raises(gc.NumericalError, match=r"^linear solve residual \S+ above 1e-12$"):
        gc.dmf_run(u0, 0.0, 1.0, 4, gc.build_window(p5, ["b", "c", "d"]))


def test_dmf_step_frozen_p3(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.VertexFunction(p3, {"b": 1.0})
    rep = gc.dmf_step(u0, 0.5, 0.0, w)
    assert rep.u_next.value("b") == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert rep.u_next.value("a") == 0.0
    assert rep.el_residual <= 1e-12
    assert rep.solve_residual <= gc.SOLVE_RESIDUAL_TOL
    assert rep.certificate_ok
    assert rep.f_next <= rep.f_prev + 1e-12
    assert rep.warnings == ()


def test_dmf_step_zero_data(p3):
    w = gc.build_window(p3, ["b"])
    zero = gc.VertexFunction(p3, {"b": 0.0})
    rep = gc.dmf_step(zero, 0.5, 0.0, w)
    assert rep.u_next.value("b") == 0.0
    assert rep.solve_residual == 0.0


def test_dmf_step_indefinite_raises(p3, monkeypatch):
    import graphcalc.evolution as evolution

    w = gc.build_window(p3, ["b"])
    u0 = gc.VertexFunction(p3, {"b": 1.0})
    with pytest.raises(gc.IndefiniteStepError, match="max\\(lambda\\)"):
        gc.dmf_step(u0, 1.0, 5.0, w)
    # an overstated mu_1 passes the margin check; the Cholesky pivot catches it
    monkeypatch.setattr(evolution, "eigvalsh", lambda m: np.full(len(m), 10.0))
    with pytest.raises(gc.IndefiniteStepError, match="pivot 1"):
        gc.dmf_step(u0, 1.0, 5.0, w)


def test_dmf_step_certificate_matches_pointwise_reference():
    # the array certificate adds every term in the order the per-vertex
    # reference adds it, so each number agrees bit for bit
    rng = gc.Lcg64(11)
    for k in (3, 5, 7):
        g = grid_graph(k)
        w = gc.build_window(g, grid_interior(k))
        u = gc.VertexFunction(g, {x: rng.uniform(-1.0, 1.0) for x in w.interior})
        q = gc.VertexFunction(g, {x: rng.uniform(-2.0, 0.5) for x in g.vertices})
        for lam in (None, 0.0, -0.7, 0.4, q):
            for cfg in (gc.DEFAULT_CONFIG, gc.CalculusConfig(2.0 / 3.0)):
                for h in (0.125, 0.5):
                    rep = gc.dmf_step(u, h, lam, w, cfg)
                    want = pointwise_dmf_certificate(rep, u, lam, w, cfg)
                    assert {name: getattr(rep, name) for name in want} == want, (k, lam, h)


def test_dmf_step_saddle_warning(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.VertexFunction(p3, {"b": 1.0})
    rep = gc.dmf_step(u0, 0.1, 1.5, w)  # above mu_1 = 1, still solvable
    assert rep.warnings
    assert "not coercive" in rep.warnings[0]


def _report_bits(rep):
    """Every field of a DMFStepReport, floats as hex, the state as its items."""
    out = []
    for field in dataclasses.fields(rep):
        x = getattr(rep, field.name)
        if isinstance(x, gc.VertexFunction):
            x = [(v, y.hex()) for v, y in x.values.items()]
        elif isinstance(x, float):
            x = x.hex()
        out.append((field.name, x))
    return out


def test_dmf_run_matches_public_steps(monkeypatch):
    # dmf_run builds the step matrix once per potential value and, for a
    # static potential, factors it once; every step still equals the public
    # dmf_step bit for bit
    import graphcalc.evolution as evolution

    k = 5
    g = grid_graph(k)
    w = gc.build_window(g, grid_interior(k))
    rng = gc.Lcg64(19)
    phi = gc.VertexFunction(g, {x: rng.uniform(-1.0, 1.0) for x in w.interior})
    q = gc.VertexFunction(g, {x: rng.uniform(-1.0, 0.5) for x in g.vertices})
    linear = lambda t: 0.3 - 0.5 * t  # what the CLI's 'linear:0.3,-0.5' builds
    factored = []
    cholesky = evolution.cholesky

    def counted_cholesky(a):
        factored.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(evolution, "cholesky", counted_cholesky)
    n_steps, t_final = 8, 1.0
    for potential, lams, factorizations in (
        (0.4, [0.4] * n_steps, 1),
        (q, [q] * n_steps, 1),
        (linear, [linear(n * (t_final / n_steps)) for n in range(n_steps)], n_steps),
    ):
        for cfg in (gc.DEFAULT_CONFIG, gc.CalculusConfig(2.0 / 3.0)):
            factored.clear()
            run = gc.dmf_run(phi, potential, t_final, n_steps, w, cfg)
            assert len(factored) == factorizations
            u = run.states[0]
            for lam, rep, state in zip(lams, run.reports, run.states[1:]):
                want = gc.dmf_step(u, t_final / n_steps, lam, w, cfg)
                assert _report_bits(rep) == _report_bits(want)
                assert rep.u_next is state
                u = want.u_next


def test_dmf_isolated_interior_vertex_raises_before_the_solve(capfd):
    g = gc.Graph(["a", "b", "z"], [("a", "b")])
    w = gc.build_window(g, ["z"])
    f = gc.VertexFunction(g, {"z": 1.0})
    calls = (lambda: gc.dmf_step(f, 0.1, 0.0, w), lambda: gc.dmf_run(f, 0.0, 1.0, 2, w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy divide warning would fail here
        for call in calls:
            with pytest.raises(gc.ValidationError, match="^vertex 'z' is isolated$"):
                call()
    assert capfd.readouterr().err == ""


def test_dmf_run_frozen_p3(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    run = gc.dmf_run(phi, 0.0, 1.0, 4, w)
    # each implicit step scales by 1/(1 + h) with h = 1/4
    assert run.states[-1].value("b") == pytest.approx(0.8**4, abs=1e-14)
    assert run.audit_ok
    assert run.audit_margin >= 0.0
    assert run.dissipation >= 0.0
    assert all(r.certificate_ok for r in run.reports)
    assert all(r.el_residual <= 1e-10 for r in run.reports)
    assert run.warnings == ()
    assert run.step == pytest.approx(0.25)


def test_dmf_run_rejects_nonzero_boundary(p3):
    w = gc.build_window(p3, ["b"])
    bad = gc.VertexFunction(p3, {"a": 1.0, "b": 1.0, "c": 0.0})
    with pytest.raises(gc.ValidationError):
        gc.dmf_run(bad, 0.0, 1.0, 4, w)


def test_dmf_run_validation(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    with pytest.raises(gc.ValidationError):
        gc.dmf_run(phi, 0.0, -1.0, 4, w)
    with pytest.raises(gc.ValidationError):
        gc.dmf_run(phi, 0.0, 1.0, 0, w)


def test_dmf_run_refuses_a_potential_that_is_not_finite(p3, monkeypatch):
    # a nan potential used to reach the factor and fail as an
    # IndefiniteStepError ("pivot 1 is nan")
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    factored = []
    monkeypatch.setattr(gc.evolution, "cholesky", lambda m: factored.append(m) or gc.linalg.cholesky(m))
    for value in (math.nan, math.inf, -math.inf):
        for potential in (value, lambda t, value=value: value):
            want = f"^potential at 'b' is {value!r} at time 0.0; it must be finite$"
            with pytest.raises(gc.ValidationError, match=want):
                gc.dmf_run(phi, potential, 1.0, 4, w)
            with pytest.raises(gc.ValidationError, match=want):
                gc.dmf_step(phi, 0.25, potential, w)
    assert factored == []

    def later(t):
        return math.nan if t > 0.5 else 0.0

    want = "^potential at 'b' is nan at time 0.75; it must be finite$"
    with pytest.raises(gc.ValidationError, match=want):
        gc.dmf_run(phi, later, 1.0, 4, w)
    assert len(factored) == 3


def test_dmf_run_rejects_a_step_that_underflows(p3):
    # 5e-324 / 2 rounds to a zero step, which the step system used to divide
    # by (ZeroDivisionError at 1 / h)
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    with pytest.raises(gc.ValidationError, match="^step size must be positive$"):
        gc.dmf_run(phi, None, 5e-324, 2, w)
    with pytest.raises(gc.ValidationError, match="^step size must be positive$"):
        gc.dmf_step(phi, 0.0, None, w)


def _time_input_calls(p3):
    """Library calls on P3 with window {b} that take a time or step size."""
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    unit = gc.VectorField(p3, {p: 1.0 for x, y in p3.edges() for p in ((x, y), (y, x))})
    return {
        "dmf_run t_final": lambda t: gc.dmf_run(phi, 0.0, t, 3, w),
        "dmf_step h": lambda t: gc.dmf_step(phi, t, 0.0, w),
        "transport t_final": lambda t: gc.transport_solve(p3, unit, phi, t, 0.1),
        "transport dt": lambda t: gc.transport_solve(p3, unit, phi, 1.0, t),
    }


FINITE = "^step size and t-final must be finite$"
POSITIVE = "^step size must be positive$"
TRANSPORT = "^t_final and dt must be positive$"


# dmf used to return the grid (0, inf, inf, inf) with zero states after
# step 0, and transport a bare "cannot convert float NaN to integer"
@pytest.mark.parametrize(
    "call, t, message",
    [
        ("dmf_run t_final", math.inf, FINITE),
        ("dmf_step h", math.inf, FINITE),
        ("dmf_run t_final", -math.inf, POSITIVE),
        ("dmf_run t_final", math.nan, POSITIVE),
        ("dmf_step h", math.nan, POSITIVE),
        ("transport t_final", math.nan, TRANSPORT),
        ("transport dt", math.nan, TRANSPORT),
        ("transport dt", -math.inf, TRANSPORT),
    ],
)
def test_nonfinite_time_inputs_are_refused(p3, call, t, message):
    with pytest.raises(gc.ValidationError, match=message):
        _time_input_calls(p3)[call](t)


def test_dmf_run_reads_phi_once_and_none_as_zero(p5, monkeypatch):
    # the steps pass closure rows on: phi is checked, gathered and extended
    # once per run, and a None potential runs bit for bit as 0.0
    import graphcalc.evolution as evolution

    w = gc.build_window(p5, ["b", "c", "d"])
    phi = gc.VertexFunction(p5, {"b": 1.0, "c": 0.5, "d": 0.25})
    want = gc.dmf_run(phi, 0.0, 1.0, 8, w)
    closure_rows = evolution._closure_rows
    reads = []

    def counted(spec, f):
        reads.append(f)
        return closure_rows(spec, f)

    monkeypatch.setattr(evolution, "_closure_rows", counted)
    run = gc.dmf_run(phi, None, 1.0, 8, w)
    assert reads == [phi]
    assert run.times == want.times
    for a, b in zip(run.states, want.states):
        assert a.values == b.values
    assert [_report_bits(r) for r in run.reports] == [_report_bits(r) for r in want.reports]


def test_dmf_positivity_preserved(p5):
    # nonnegative data and nonpositive potential keep the flow nonnegative
    w = gc.build_window(p5, ["b", "c", "d"])
    phi = gc.VertexFunction(p5, {"b": 1.0, "c": 0.5, "d": 2.0})
    run = gc.dmf_run(phi, -0.3, 1.0, 10, w)
    for u in run.states:
        for v in w.interior:
            assert u.value(v) >= -1e-15


def test_dmf_time_dependent_potential_warning_collection(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    run = gc.dmf_run(phi, lambda t: 2.0 if t >= 0.5 else 0.0, 1.0, 4, w)
    assert any("not coercive" in msg for msg in run.warnings)
    assert run.audit_ok


def test_dmf_interpolants(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    run = gc.dmf_run(phi, 0.0, 1.0, 4, w)
    h = run.step
    assert run.linear_state(0.0).value("b") == run.states[0].value("b")
    for n, t in enumerate(run.times):
        assert run.linear_state(t).value("b") == pytest.approx(
            run.states[n].value("b"), abs=1e-14
        )
    mid = run.linear_state(h / 2).value("b")
    want = 0.5 * (run.states[0].value("b") + run.states[1].value("b"))
    assert mid == pytest.approx(want, abs=1e-14)
    assert run.step_state(0.0).value("b") == run.states[0].value("b")
    assert run.step_state(-h).value("b") == run.states[0].value("b")
    assert run.step_state(h / 2).value("b") == run.states[1].value("b")
    assert run.step_state(h).value("b") == run.states[1].value("b")
    assert run.step_state(1.0).value("b") == run.states[-1].value("b")
    with pytest.raises(gc.ValidationError):
        run.linear_state(-0.1)
    with pytest.raises(gc.ValidationError):
        run.linear_state(1.5)
    with pytest.raises(gc.ValidationError):
        run.step_state(-2 * h)


def test_dmf_step_index_at_grid_times_and_midpoints(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    phi = gc.VertexFunction(p5, {"b": 1.0, "c": -0.5, "d": 0.25})
    run = gc.dmf_run(phi, 0.0, 1.0, 5, w)  # h = 0.2 is not a binary fraction
    for n in range(1, len(run.times)):
        a, b = run.states[n - 1], run.states[n]
        mid = 0.5 * (run.times[n - 1] + run.times[n])
        assert run.step_state(run.times[n]) is b
        assert run.step_state(mid) is b
        at_grid = run.linear_state(run.times[n])
        at_mid = run.linear_state(mid)
        for x in w.closure:
            assert at_grid.value(x) == pytest.approx(b.value(x), abs=1e-14)
            assert at_mid.value(x) == pytest.approx(0.5 * (a.value(x) + b.value(x)), abs=1e-14)
    assert run.linear_state(0.0).values == run.states[0].values
    assert run.step_state(0.0) is run.states[0]


def test_dmf_convergence_reference_mode(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    rep = gc.dmf_convergence_study(phi, 0.0, 1.0, (4, 8, 16, 32), w)
    assert rep.mode == "reference"
    assert rep.errors == tuple(sorted(rep.errors, reverse=True))
    assert rep.fitted_order >= 0.9


def _pointwise_gap(w, u, v):
    """sqrt of sum (u(x) - v(x))^2 d_x over the interior, added in order."""
    total = 0.0
    for x in w.interior:
        d = u.value(x) - v.value(x)
        total += d * d * w.graph.degree(x)
    return math.sqrt(total)


@pytest.mark.parametrize("k", [5, 6, 8, 10])
@pytest.mark.parametrize("static", [True, False], ids=["static", "time-dependent"])
def test_dmf_convergence_errors_are_the_pointwise_gaps(k, static):
    # the gaps used to add in np.sum's pairwise order, and six of these
    # eight studies differed from this reference in the last bit
    g = grid_graph(k)
    w = gc.build_window(g, grid_interior(k))
    n = len(w.interior)
    phi = gc.VertexFunction(g, {x: math.sin(math.pi * (i + 1) / (n + 1)) for i, x in enumerate(w.interior)})
    potential = 0.25 if static else (lambda t: 0.25 * math.cos(t))
    ns = (4, 8, 16)
    rep = gc.dmf_convergence_study(phi, potential, 0.5, ns, w)
    runs = {m: gc.dmf_run(phi, potential, 0.5, m, w) for m in ns}
    if static:
        q = gc.VertexFunction(g, {x: -0.25 for x in w.interior})
        es = spectral.eigensystem(spectral.OperatorSpec(w, "dirichlet", q))
        pairs = [list(zip(runs[m].states, spectral._heat(es, phi, runs[m].times))) for m in ns]
    else:
        pairs = [[(runs[a].states[j], runs[b].states[2 * j]) for j in range(a + 1)] for a, b in zip(ns, ns[1:])]
    assert rep.errors == tuple(max(_pointwise_gap(w, u, v) for u, v in ps) for ps in pairs)


@pytest.mark.parametrize("static", [True, False], ids=["static", "time-dependent"])
def test_dmf_convergence_fitted_order_is_the_least_squares_slope(static):
    # LAPACK's least-squares fit is the oracle for the closed-form slope
    g = grid_graph(6)
    w = gc.build_window(g, grid_interior(6))
    phi = gc.VertexFunction(g, {x: 1.0 + 0.1 * i for i, x in enumerate(w.interior)})
    potential = 0.25 if static else (lambda t: 0.25 * math.cos(t))
    rep = gc.dmf_convergence_study(phi, potential, 0.5, (4, 8, 16, 32), w)
    assert len(rep.errors) >= 3 and min(rep.errors) > 0
    want = np.polyfit(np.log(rep.steps), np.log(rep.errors), 1)[0]
    assert rep.fitted_order == pytest.approx(want, rel=1e-12, abs=0.0)


def test_dmf_convergence_self_mode(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    phi = gc.VertexFunction(p5, {"b": 1.0, "c": 0.5, "d": 0.25})
    rep = gc.dmf_convergence_study(
        phi, lambda t: -0.5 * math.sin(t), 1.0, (4, 8, 16, 32), w
    )
    assert rep.mode == "self"
    assert rep.fitted_order >= 0.9
    with pytest.raises(gc.ValidationError):
        gc.dmf_convergence_study(phi, lambda t: 0.0, 1.0, (4, 12), w)
    with pytest.raises(gc.ValidationError):
        gc.dmf_convergence_study(phi, 0.0, 1.0, (8,), w)


# --- the array heat audit against its pointwise reference -----------------


def _audit_specs():
    """The fixtures with their canonical windows and the 4 x 4 and 7 x 7
    grids with the window off their outer ring, at laplacian scale 1 or
    2/3, under every bc, with no potential, a constant one and a vertex
    function."""
    rng = gc.Lcg64(71)
    regions = [(make(), None) for make in FIXTURES.values()]
    regions += [(grid_graph(k), grid_interior(k)) for k in (4, 7)]
    for n, (g, interior) in enumerate(regions):
        w = gc.canonical_window(g) if interior is None else gc.build_window(g, interior)
        q = gc.VertexFunction(g, {v: rng.uniform(0.0, 2.0) for v in g.vertices})
        cfg = gc.CalculusConfig(laplacian_scale=(1.0, 2.0 / 3.0)[n % 2])
        for potential in (None, 0.7, q):
            yield gc.OperatorSpec(g, "none", potential, cfg)
            yield gc.OperatorSpec(w, "dirichlet", potential, cfg)
            yield gc.OperatorSpec(w, "neumann", potential, cfg)


def _assert_audit_matches_reference(traj, spec):
    got = dataclasses.astuple(gc.heat_identities_report(traj, spec))
    want = dataclasses.astuple(pointwise_heat_identities_report(traj, spec))
    assert repr(got) == repr(want), spec.bc  # repr tells -0.0 from 0.0


def _pow_rounds_apart(rng):
    """A draw whose square x ** 2 (the C library's pow) is not x * x."""
    while True:
        x = rng.uniform(-1.0, 1.0)
        if x**2 != x * x:
            return x


def _off_flow_states(spec, rng, count):
    """Closure states that are not a heat flow: random neumann boundary
    values the reflection does not reproduce, signed zeros on a dirichlet
    boundary and at some interior vertices, and values whose pow square is
    not their product square."""
    states = []
    for n in range(count):
        values = {x: rng.uniform(-1.0, 1.0) for x in spec.interior}
        values[spec.interior[0]] = _pow_rounds_apart(rng)
        values[spec.interior[n % len(spec.interior)]] = -0.0
        for i, b in enumerate(spec.boundary):
            values[b] = rng.uniform(-1.0, 1.0) if spec.bc == "neumann" else (-0.0 if i % 2 else 0.0)
        states.append(gc.VertexFunction(spec.graph, values))
    return states


def test_heat_identities_match_pointwise_reference():
    rng = gc.Lcg64(73)
    times = grid(0.1, 10)
    for spec in _audit_specs():
        f = gc.VertexFunction(spec.graph, {x: rng.uniform(-1.0, 1.0) for x in spec.interior})
        _assert_audit_matches_reference(gc.spectral_heat_solve(spec, f, times), spec)
        states = _off_flow_states(spec, rng, 5)
        _assert_audit_matches_reference(gc.Trajectory(tuple(times[:5]), tuple(states), "test"), spec)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    connected_graphs(),
    st.sampled_from(gc.spectral.BOUNDARY_CONDITIONS),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_heat_identities_match_pointwise_reference_property(g, bc, with_potential, seed):
    rng = gc.Lcg64(seed)
    potential = (
        gc.VertexFunction(g, {v: rng.uniform(-1.0, 2.0) for v in g.vertices})
        if with_potential
        else None
    )
    spec = gc.OperatorSpec(g if bc == "none" else gc.canonical_window(g), bc, potential)
    f = gc.VertexFunction(g, {x: rng.uniform(-1.0, 1.0) for x in spec.interior})
    _assert_audit_matches_reference(gc.spectral_heat_solve(spec, f, grid(0.05, 5)), spec)
    states = _off_flow_states(spec, rng, 4)
    _assert_audit_matches_reference(gc.Trajectory(tuple(grid(0.03, 3)), tuple(states), "test"), spec)


def test_heat_identities_error_paths_match_pointwise_reference(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    spec = gc.OperatorSpec(w, "dirichlet")
    good = gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": 0.5, "d": 1.0, "e": 0.0})
    cases = {
        "boundary data": (
            gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "c": 0.5, "d": 1.0, "e": 0.125}),
            gc.ValidationError,
            "dirichlet data must vanish on the boundary, f(e) = 0.125",
        ),
        "missing interior vertex": (
            gc.VertexFunction(p5, {"a": 0.0, "b": 1.0, "d": 1.0, "e": 0.0}),
            gc.DomainError,
            "function not defined at 'c'",
        ),
        "missing boundary vertex": (
            gc.VertexFunction(p5, {"b": 1.0, "c": 0.5, "d": 1.0, "e": 0.0}),
            gc.DomainError,
            "function not defined at 'a'",
        ),
    }
    for name, (bad, kind, message) in cases.items():
        traj = gc.Trajectory((0.0, 0.01, 0.02), (good, bad, good), "test")
        for audit in (gc.heat_identities_report, pointwise_heat_identities_report):
            with pytest.raises(kind) as info:
                audit(traj, spec)
            assert type(info.value) is kind and str(info.value) == message, (name, audit)


def test_heat_identities_overflow_is_numerical_error(p5, recwarn):
    # a square past the float range used to escape as Python's OverflowError
    # from x ** 2; a mass, form or gap that is not finite is reported instead
    # of auditing inf - inf
    spec = gc.OperatorSpec(p5, "none")
    for big in (1e200, 1e154):
        u = gc.VertexFunction(p5, {v: big if v == "c" else 0.0 for v in p5.vertices})
        traj = gc.Trajectory((0.0, 0.01, 0.02), (u, u, u), "test")
        with pytest.raises(gc.NumericalError, match="not finite"):
            gc.heat_identities_report(traj, spec)
    assert not recwarn.list
