import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphcalc as gc

from conftest import FIXTURES, make_c4, make_octahedron, make_p3, make_p5
from helpers import connected_graphs

EX = gc.SpherePoint(1.0, 0.0, 0.0)
EY = gc.SpherePoint(0.0, 1.0, 0.0)
EZ = gc.SpherePoint(0.0, 0.0, 1.0)


def random_sphere_map(g, rng):
    points = {}
    for v in g.vertices:
        vec = np.array([rng.normal(), rng.normal(), rng.normal()])
        while float(np.linalg.norm(vec)) < 1e-3:
            vec = np.array([rng.normal(), rng.normal(), rng.normal()])
        points[v] = gc.SpherePoint.from_array(vec)
    return gc.SphereMap(g, points)


def random_tangent(rng, p):
    vec = np.array([rng.normal(), rng.normal(), rng.normal()])
    vec -= float(np.dot(vec, p.array)) * p.array
    n = float(np.linalg.norm(vec))
    if n < 1e-6:
        return random_tangent(rng, p)
    return vec / n


def test_sphere_point_normalizes_and_validates():
    p = gc.SpherePoint(0.0, 0.0, 2.0)
    assert p == EZ
    assert np.allclose(p.array, [0.0, 0.0, 1.0])
    with pytest.raises(gc.ValidationError):
        gc.SpherePoint(0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        p.x = 1.0
    assert len({EZ, gc.SpherePoint(0, 0, 1)}) == 1


def test_sphere_distance():
    assert gc.sphere_distance(EX, EX) == 0.0
    assert gc.sphere_distance(EX, EY) == pytest.approx(math.pi / 2, abs=1e-15)
    anti = gc.SpherePoint(-1.0, 0.0, 0.0)
    assert gc.sphere_distance(EX, anti) == pytest.approx(math.pi, abs=1e-15)


def test_log_exp_inverse():
    rng = gc.Lcg64(71)
    for _ in range(50):
        p = gc.SpherePoint(rng.normal(), rng.normal(), rng.normal())
        q = gc.SpherePoint(rng.normal(), rng.normal(), rng.normal())
        v = gc.sphere_log(p, q)
        assert abs(float(np.dot(v, p.array))) <= 1e-12
        assert float(np.linalg.norm(v)) == pytest.approx(
            gc.sphere_distance(p, q), abs=1e-12
        )
        back = gc.sphere_exp(p, v)
        # coordinate comparison: acos near 1 would inflate the gap to ~1e-8
        assert np.allclose(back.array, q.array, atol=1e-12)


def test_log_exp_edge_cases():
    assert np.array_equal(gc.sphere_log(EX, EX), np.zeros(3))
    assert gc.sphere_exp(EX, np.zeros(3)) == EX
    with pytest.raises(gc.AntipodalPointsError):
        gc.sphere_log(EX, gc.SpherePoint(-1.0, 0.0, 0.0))
    # normal components are projected away before exponentiating
    v = np.array([0.0, 0.3, 0.0])
    assert gc.sphere_exp(EX, v + 2.0 * EX.array) == gc.sphere_exp(EX, v)


def test_sphere_map_api(p3):
    u = gc.SphereMap(p3, {"b": EZ, "a": EX})
    assert u.domain == ("a", "b")  # file order, not insertion order
    assert "c" not in u
    with pytest.raises(gc.DomainError):
        u.point("c")
    with pytest.raises(gc.UnknownVertexError):
        u.point("zz")
    u2 = u.updated({"c": EY})
    assert "c" not in u and "c" in u2
    assert u2.defined_on(p3.vertices)


def quarter_arc_map(p3):
    mid = gc.SpherePoint(1.0, 1.0, 0.0)
    return gc.SphereMap(p3, {"a": EX, "b": mid, "c": EY})


def test_energy_frozen_values(p3, k2):
    w = gc.build_window(p3, ["b"])
    u = quarter_arc_map(p3)
    assert gc.map_energy(u, w) == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    uk = gc.SphereMap(k2, {"a": EX, "b": EY})
    assert gc.map_energy(uk, k2) == pytest.approx(math.pi**2 / 4.0, abs=1e-12)
    assert gc.energy_density(u, "b", w) == pytest.approx(math.pi**2 / 32.0, abs=1e-12)


def test_map_energy_is_degree_weighted_density_sum():
    rng = gc.Lcg64(73)
    for make in (make_p3, make_c4, make_p5):
        g = make()
        u = random_sphere_map(g, rng)
        total = sum(g.degree(x) * gc.energy_density(u, x) for x in g.vertices)
        assert gc.map_energy(u, g) == pytest.approx(total, abs=1e-12)


def test_first_variation_fd_contract():
    # directional derivative of the energy = 2 d_x <first_variation, eta>
    rng = gc.Lcg64(79)
    eps = 1e-6
    for make in (make_p3, make_c4, make_octahedron):
        g = make()
        for _ in range(6):
            u = random_sphere_map(g, rng)
            x = g.vertices[rng.randint(len(g))]
            p = u.point(x)
            eta = random_tangent(rng, p)
            fv = gc.first_variation(u, x)
            want = 2.0 * g.degree(x) * float(np.dot(fv, eta))
            e_plus = gc.map_energy(u.updated({x: gc.sphere_exp(p, eps * eta)}), g)
            e_minus = gc.map_energy(u.updated({x: gc.sphere_exp(p, -eps * eta)}), g)
            got = (e_plus - e_minus) / (2.0 * eps)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_first_variation_vanishes_at_midpoint(p3):
    u = quarter_arc_map(p3)
    w = gc.build_window(p3, ["b"])
    fv = gc.first_variation(u, "b", w)
    assert float(np.linalg.norm(fv)) <= 1e-15


def test_check_no_antipodal_edges(p3):
    w = gc.build_window(p3, ["b"])
    bad = gc.SphereMap(p3, {"a": EX, "b": gc.SpherePoint(-1.0, 0.0, 0.0), "c": EY})
    with pytest.raises(gc.AntipodalPointsError):
        gc.check_no_antipodal_edges(bad, w)
    with pytest.raises(gc.AntipodalPointsError, match="'[ab]', '[ab]'"):
        gc.harmonic_heat_flow(bad, w)
    gc.check_no_antipodal_edges(quarter_arc_map(p3), w)


def test_flow_p3_midpoint(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    res = gc.harmonic_heat_flow(u0, w, tol=1e-12)
    assert res.status == "converged"
    assert res.residual <= 1e-12
    mid = gc.SpherePoint(1.0, 1.0, 0.0)
    assert gc.sphere_distance(res.map.point("b"), mid) <= 1e-8
    assert res.map.point("a") == EX and res.map.point("c") == EY
    assert res.final_energy <= res.initial_energy
    assert res.final_energy == pytest.approx(math.pi**2 / 8.0, abs=1e-10)


def test_flow_energy_monotone_history(octahedron):
    rng = gc.Lcg64(83)
    u0 = random_sphere_map(octahedron, rng)
    w = gc.build_window(octahedron, ["p1", "m1", "p2"])
    res = gc.harmonic_heat_flow(u0, w, tol=1e-9)
    energies = [h[2] for h in res.history]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-15 * max(1.0, a)
    assert len(res.history) <= 50
    assert res.status in ("converged", "step_cap", "stalled")


def test_flow_step_cap(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    res = gc.harmonic_heat_flow(u0, w, tol=1e-14, max_steps=1)
    assert res.status == "step_cap"
    assert res.steps_accepted <= 1


def test_flow_stalled_when_every_step_rejected(p3, monkeypatch):
    # force the energy to look worse after every trial step
    calls = {"n": 0}

    def rising(theta):
        calls["n"] += 1
        return float(calls["n"])

    monkeypatch.setattr("graphcalc.harmonic._pair_energy", rising)
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    res = gc.harmonic_heat_flow(u0, w, tol=1e-14)
    assert res.status == "stalled"
    assert res.steps_accepted == 0
    assert res.tau_final < 1e-14
    assert res.map.point("b") == EZ


def test_flow_validation(p3):
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    partial = gc.SphereMap(p3, {"a": EX, "b": EZ})
    with pytest.raises(gc.ValidationError):
        gc.harmonic_heat_flow(u0, w, tau=0.0)
    with pytest.raises(gc.ValidationError):
        gc.harmonic_heat_flow(u0, w, tol=-1.0)
    with pytest.raises(gc.ValidationError):
        gc.harmonic_heat_flow(u0, w, max_steps=0)
    with pytest.raises(gc.ValidationError):
        gc.harmonic_heat_flow(partial, w)
    lone = gc.Graph(["a", "b", "z"], [("a", "b")])
    with pytest.raises(gc.ValidationError, match="isolated"):
        gc.harmonic_heat_flow(
            gc.SphereMap(lone, {"a": EX, "b": EY, "z": EZ}), gc.build_window(lone, ["z"])
        )
    # a hand-built window may leave an interior vertex with no closure pair:
    # its first variation is zero, as in the pointwise sum
    res = gc.harmonic_heat_flow(u0, gc.SubgraphWindow(p3, ("b",), ()))
    assert res.status == "converged" and res.residual == 0.0


def test_dirichlet_minimize_p3(p3):
    w = gc.build_window(p3, ["b"])
    boundary = gc.SphereMap(p3, {"a": EX, "c": EY})
    res = gc.dirichlet_minimize(boundary, w)
    assert res.flow.status == "converged"
    assert res.certificate_ok
    assert res.flow.final_energy <= res.seed_energy + 1e-12
    mid = gc.SpherePoint(1.0, 1.0, 0.0)
    assert gc.sphere_distance(res.flow.map.point("b"), mid) <= 1e-6


def test_dirichlet_minimize_antipodal_boundary_fallback(p3):
    # boundary mean is zero; the seed must fall back to a fixed point,
    # interior vertices are never left undefined
    w = gc.build_window(p3, ["b"])
    boundary = gc.SphereMap(p3, {"a": EZ, "c": gc.SpherePoint(0.0, 0.0, -1.0)})
    res = gc.dirichlet_minimize(boundary, w)
    assert res.flow.map.defined_on(w.closure)
    assert res.certificate_ok


def test_dirichlet_minimize_validation(p3):
    w = gc.build_window(p3, ["b"])
    with pytest.raises(gc.ValidationError):
        gc.dirichlet_minimize(gc.SphereMap(p3, {"a": EX}), w)


def test_rotation_equivariance():
    rng = gc.Lcg64(89)
    g = make_c4()
    u = random_sphere_map(g, rng)
    rot = gc.random_rotation(rng)
    ru = gc.rotate_map(u, rot)
    assert gc.map_energy(ru, g) == pytest.approx(gc.map_energy(u, g), abs=1e-12)
    for x in g.vertices:
        want = rot @ gc.first_variation(u, x)
        got = gc.first_variation(ru, x)
        assert np.allclose(got, want, atol=1e-12)


def test_random_rotation_is_proper():
    for seed in (1, 2, 3, 97):
        rot = gc.random_rotation(gc.Lcg64(seed))
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    a = gc.random_rotation(gc.Lcg64(5))
    b = gc.random_rotation(gc.Lcg64(5))
    assert np.array_equal(a, b)


def test_ambient_tension_matches_first_variation():
    rng = gc.Lcg64(97)
    for make in (make_p3, make_c4, make_octahedron):
        g = make()
        for _ in range(5):
            u = random_sphere_map(g, rng)
            for x in g.vertices:
                rep = gc.ambient_tension_report(u, x)
                assert rep.residual <= 1e-12
                assert np.allclose(
                    rep.projected,
                    -0.5 * np.array(rep.first_variation),
                    atol=1e-12,
                )


def test_ambient_tension_coincident_points(p3):
    u = gc.SphereMap(p3, {"a": EX, "b": EX, "c": EX})
    rep = gc.ambient_tension_report(u, "b")
    assert rep.residual <= 1e-15
    assert np.allclose(rep.first_variation, np.zeros(3))


def test_ambient_tension_antipodal_raises(p3):
    u = gc.SphereMap(p3, {"a": gc.SpherePoint(-1, 0, 0), "b": EX, "c": EY})
    with pytest.raises(gc.AntipodalPointsError):
        gc.ambient_tension_report(u, "b")


# --- the array flow against the pointwise API ------------------------------


def _assert_first_step_matches_pointwise(u0, w, tau):
    res = gc.harmonic_heat_flow(u0, w, tau=tau, tol=1e-300, max_steps=1)
    want_energy = gc.map_energy(u0, w)
    assert res.initial_energy == pytest.approx(want_energy, rel=1e-14, abs=1e-300)
    fvs = {x: gc.first_variation(u0, x, w) for x in w.interior}
    want_residual = max(float(np.linalg.norm(v)) for v in fvs.values())
    assert res.residual == pytest.approx(want_residual, rel=1e-14, abs=1e-300)
    for b in w.boundary:
        assert res.map.point(b) is u0.point(b)
    if res.status == "converged":
        assert want_residual == 0.0
        return res
    for x in w.interior:
        got = res.map.point(x).array
        if res.steps_accepted:
            want = gc.sphere_exp(u0.point(x), -tau * fvs[x]).array
        else:
            want = u0.point(x).array
        assert np.allclose(got, want, rtol=0.0, atol=1e-15), x
    return res


def test_flow_first_step_matches_pointwise_on_fixtures():
    rng = gc.Lcg64(101)
    accepted = 0
    for make in FIXTURES.values():
        g = make()
        interiors = [[g.vertices[1]], list(g.vertices[: len(g) // 2 + 1])]
        for interior in interiors:
            if not g.is_connected(within=interior):
                continue
            w = gc.build_window(g, interior)
            for tau in (0.5, 2.0):
                res = _assert_first_step_matches_pointwise(random_sphere_map(g, rng), w, tau)
                accepted += res.steps_accepted
    assert accepted > 0


# (status, accepted, rejected) of the per-vertex flow at tol 1e-11; the array
# flow must take exactly the same steps, rejections included
FROZEN_STEP_COUNTS = {
    ("p3", 0.5): ("converged", 52, 0),
    ("p3", 8.0): ("converged", 46, 2),
    ("octahedron", 0.5): ("converged", 72, 0),
    ("octahedron", 8.0): ("converged", 29, 3),
    ("octahedron-83", 0.5): ("converged", 84, 0),
    ("octahedron-83", 8.0): ("converged", 35, 3),
}


def test_flow_step_counts_frozen(p3, octahedron):
    rng = gc.Lcg64(83)
    flows = {
        "p3": (gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY}), gc.build_window(p3, ["b"])),
        "octahedron": (
            gc.SphereMap(
                octahedron,
                {
                    "p1": gc.SpherePoint(1.0, 0.2, -0.3),
                    "m1": gc.SpherePoint(-0.2, 1.0, 0.4),
                    "p2": gc.SpherePoint(0.1, -0.4, 1.0),
                    "m2": gc.SpherePoint(0.0, 1.0, 0.0),
                    "p3": gc.SpherePoint(0.0, 0.0, 1.0),
                    "m3": gc.SpherePoint(1.0, 1.0, 1.0),
                },
            ),
            gc.build_window(octahedron, ["p1", "m1", "p2"]),
        ),
        "octahedron-83": (
            random_sphere_map(octahedron, rng),
            gc.build_window(octahedron, ["p1", "m1", "p2"]),
        ),
    }
    for (name, tau), want in FROZEN_STEP_COUNTS.items():
        u0, w = flows[name]
        res = gc.harmonic_heat_flow(u0, w, tau=tau, tol=1e-11, max_steps=2000)
        assert (res.status, res.steps_accepted, res.steps_rejected) == want, (name, tau)


@st.composite
def windowed_maps(draw):
    g = draw(connected_graphs())
    interior = [draw(st.sampled_from(g.vertices))]
    for _ in range(draw(st.integers(0, len(g) - 1))):
        reach = sorted(
            {y for x in interior for y in g.neighbors(x)} - set(interior), key=g.index.get
        )
        if reach:
            interior.append(draw(st.sampled_from(reach)))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    points = {}
    for v in g.vertices:
        xyz = draw(st.tuples(coords, coords, coords))
        assume(math.fsum(c * c for c in xyz) > 1e-6)
        points[v] = gc.SpherePoint(*xyz)
    tau = draw(st.sampled_from((0.1, 0.5, 2.0)))
    return gc.SphereMap(g, points), gc.build_window(g, interior), tau


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(windowed_maps())
def test_flow_first_step_property(case):
    u0, w, tau = case
    try:
        gc.check_no_antipodal_edges(u0, w)
    except gc.AntipodalPointsError:
        with pytest.raises(gc.AntipodalPointsError):
            gc.harmonic_heat_flow(u0, w, tau=tau)
        return
    _assert_first_step_matches_pointwise(u0, w, tau)
