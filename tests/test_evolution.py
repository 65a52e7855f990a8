import math

import numpy as np
import pytest

import graphcalc as gc

from conftest import FIXTURES
from helpers import random_connected_graph


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
        hk = gc.heat_kernel(gc.eigensystem(spec))
        for t, u in zip(times, traj.states):
            want = hk.apply(t, f)
            assert u.domain == want.domain == p5.vertices
            for v in w.closure:
                assert u.value(v).hex() == want.value(v).hex(), (bc, t, v)


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


def test_dmf_step_indefinite_raises(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.VertexFunction(p3, {"b": 1.0})
    with pytest.raises(gc.IndefiniteStepError):
        gc.dmf_step(u0, 1.0, 5.0, w)
    # an overstated mu_1 passes the margin check; the Cholesky pivot catches it
    with pytest.raises(gc.IndefiniteStepError, match="pivot 1"):
        gc.dmf_step(u0, 1.0, 5.0, w, mu_first=10.0)


def test_dmf_step_saddle_warning(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.VertexFunction(p3, {"b": 1.0})
    rep = gc.dmf_step(u0, 0.1, 1.5, w)  # above mu_1 = 1, still solvable
    assert rep.warnings
    assert "not coercive" in rep.warnings[0]


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


def test_dmf_convergence_reference_mode(p3):
    w = gc.build_window(p3, ["b"])
    phi = gc.VertexFunction(p3, {"b": 1.0})
    rep = gc.dmf_convergence_study(phi, 0.0, 1.0, (4, 8, 16, 32), w)
    assert rep.mode == "reference"
    assert rep.errors == tuple(sorted(rep.errors, reverse=True))
    assert rep.fitted_order >= 0.9


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
