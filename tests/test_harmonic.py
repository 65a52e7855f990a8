import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphcalc as gc

from conftest import FIXTURES, make_c4, make_octahedron, make_p3, make_p5
from helpers import connected_graphs, grid_graph, grid_interior, pointwise_seed_map

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


def test_sphere_point_normalizes_past_the_float_range():
    # the sum of squares overflows; hypot does not
    assert gc.SpherePoint(1e200, 0.0, 0.0).xyz == (1.0, 0.0, 0.0)
    x, y, z = gc.SpherePoint(1e308, -1e308, 0.5).xyz
    assert x == -y == pytest.approx(math.sqrt(0.5), rel=1e-15) and 0.0 < z < 1e-300
    # inside the normal range the norm is still sqrt of the sum of squares
    rng = gc.Lcg64(59)
    for _ in range(200):
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        assert gc.SpherePoint(*v).xyz == (v[0] / n, v[1] / n, v[2] / n)


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


def test_sphere_exp_past_the_float_range_is_numerical_error():
    # the projected [1e150, 0, 0] has a finite squared length; [1e200, 0, 0]'s is inf
    p = gc.SpherePoint(1.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(gc.sphere_exp(p, [1e150, 0.0, 0.0]), gc.SpherePoint)
        for v in ([1e200, 0.0, 0.0], [1.5e308, 0.0, 0.0], [math.nan, 0.0, 0.0]):
            with pytest.raises(gc.NumericalError, match="sphere exp overflowed"):
                gc.sphere_exp(p, v)


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


def test_flow_converges_when_the_seed_meets_a_boundary_point(p3):
    # both boundary points are one point, so the seed is that point too; the
    # dot of a row with itself rounds below 1, theta ~ 2e-8 passes the
    # 1e-15 mask, and v = q - (p.q) p is exactly zero.  The log map used to
    # divide by that zero: numpy warnings, then 20,000 accepted steps that
    # never moved and a nan residual.
    w = gc.build_window(p3, ["b"])
    q = gc.SpherePoint(-0.4122175063618756, 0.5375837745546892, 0.7455340492564027)
    bmap = gc.SphereMap(p3, {"a": q, "c": q})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gc.dirichlet_minimize(bmap, w)
    assert res.flow.status == "converged"
    assert res.flow.residual == 0.0
    assert res.flow.steps_accepted == res.flow.steps_rejected == 0


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


def test_flow_rejects_steps_past_the_float_range(p3):
    # tau = 1e308 makes every trial step overflow; the nan trials used to
    # print numpy warnings, and are now rejected until tau halves to size
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gc.harmonic_heat_flow(u0, w, tau=1e308, tol=1e-10, max_steps=3000)
    assert res.status == "converged"
    assert res.steps_rejected > 1000
    assert gc.sphere_distance(res.map.point("b"), gc.SpherePoint(1.0, 1.0, 0.0)) <= 1e-8


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


@pytest.mark.parametrize("name", ["tau", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_flow_refuses_non_finite_tau_and_tol(p3, name, value):
    # a nan tau would accept every step without moving, up to the step cap
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(p3, {"a": EX, "b": EZ, "c": EY})
    with pytest.raises(gc.ValidationError, match="must be positive"):
        gc.harmonic_heat_flow(u0, w, max_steps=500, **{name: value})
    with pytest.raises(gc.ValidationError, match="must be positive"):
        gc.dirichlet_minimize(gc.SphereMap(p3, {"a": EX, "c": EY}), w, max_steps=500, **{name: value})


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
        # rotate_map's elementwise products give rot @ p up to rounding
        assert np.max(np.abs(ru.point(x).array - rot @ u.point(x).array)) <= 1e-15
        want = rot @ gc.first_variation(u, x)
        got = gc.first_variation(ru, x)
        assert np.allclose(got, want, atol=1e-12)


def test_random_rotation_is_proper():
    for seed in (1, 2, 3, 97):
        rot = gc.random_rotation(gc.Lcg64(seed))
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        # it is LAPACK's QR of the same normals with R's diagonal made
        # positive and the first column flipped to a determinant of +1
        rng = gc.Lcg64(seed)
        q, r = np.linalg.qr(np.array([[rng.normal() for _ in range(3)] for _ in range(3)]))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        assert np.max(np.abs(rot - q)) <= 1e-15, seed
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


def _assert_accepted_energies_fall(flow):
    energies = [flow.initial_energy] + [h[2] for h in flow.history]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-15 * max(1.0, a)  # the acceptance rule's slack


def twisted_circle(k):
    """The k x k grid window with a twisted circle on its boundary."""
    w = gc.build_window(grid_graph(k), grid_interior(k))
    points = {}
    for v in w.boundary:
        i, j = (int(t) for t in v[1:].split("c"))
        th = math.atan2(i - (k - 1) / 2, j - (k - 1) / 2)
        points[v] = gc.SpherePoint(math.cos(th), math.sin(th), 0.3 + 0.5 * math.sin(2 * th))
    return gc.SphereMap(w.graph, points), w


def test_minimizer_steps_on_the_twisted_circle():
    # the fixed-tau flow from the same seed takes 178 accepted steps here
    boundary_map, w = twisted_circle(10)
    flow = gc.dirichlet_minimize(boundary_map, w, tol=1e-6).flow
    assert flow.status == "converged" and flow.residual <= 1e-6
    assert flow.steps_accepted + flow.steps_rejected <= 60
    assert len(flow.history) == flow.steps_accepted
    _assert_accepted_energies_fall(flow)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(windowed_maps())
def test_minimizer_reaches_the_fixed_step_minimum_property(case):
    # Barzilai-Borwein steps end where the fixed-tau flow from the same seed
    # ends, wherever that flow converges
    boundary_map, w, tau = case
    seed = gc.harmonic._seed_map(boundary_map, w)
    try:
        fixed = gc.harmonic_heat_flow(seed, w, tau=tau, tol=1e-8, max_steps=20000)
    except gc.AntipodalPointsError:
        return
    assume(fixed.status == "converged")
    flow = gc.dirichlet_minimize(boundary_map, w, tau=tau, tol=1e-8).flow
    assert flow.status == "converged" and flow.residual <= 1e-8
    assert abs(flow.final_energy - fixed.final_energy) <= 1e-10 * max(1.0, fixed.final_energy)
    _assert_accepted_energies_fall(flow)


def _assert_seed_matches_pointwise(boundary_map, w):
    got = gc.harmonic._seed_map(boundary_map, w)
    want = pointwise_seed_map(boundary_map, w)
    assert got.domain == want.domain == tuple(x for x in w.graph.vertices if x in w.layout.rows)
    assert [got.point(x).xyz for x in got.domain] == [want.point(x).xyz for x in want.domain]
    assert gc.map_energy(got, w) == gc.map_energy(want, w)


def test_seed_sweeps_match_pointwise_loop(p3, octahedron):
    rng = gc.Lcg64(97)
    cases = [
        (gc.SphereMap(p3, {"a": EX, "c": EY}), gc.build_window(p3, ["b"])),
        # the boundary sum cancels: every interior vertex takes FALLBACK_POINT
        (gc.SphereMap(p3, {"a": EZ, "c": gc.SpherePoint(0.0, 0.0, -1.0)}), gc.build_window(p3, ["b"])),
        # a -0.0 coordinate: sums start from +0.0, as sum(..., np.zeros(3)) does
        (gc.SphereMap(p3, {"a": gc.SpherePoint(-0.0, 0.0, 1.0)}), gc.build_window(p3, ["b", "c"])),
        (random_sphere_map(octahedron, rng), gc.build_window(octahedron, ["p1", "m1", "p2"])),
    ]
    for k in (5, 8):
        g = grid_graph(k)
        cases.append((random_sphere_map(g, rng), gc.build_window(g, grid_interior(k))))
    for boundary_map, w in cases:
        _assert_seed_matches_pointwise(boundary_map, w)
    boundary_map, w = cases[-1]
    res = gc.dirichlet_minimize(boundary_map, w, tol=1e-6)
    assert res.seed_energy == gc.map_energy(pointwise_seed_map(boundary_map, w), w)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(windowed_maps())
def test_seed_sweeps_match_pointwise_loop_property(case):
    u0, w, _ = case
    _assert_seed_matches_pointwise(u0, w)
