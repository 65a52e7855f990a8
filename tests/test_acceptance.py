"""Package-level acceptance gates, one test group per advertised guarantee.

Unlike the per-module suites these are end-to-end: large seeded batches for
the exact identities, closed-form spectra, random-subspace probes of the
variational eigenvalue characterization, brute-force parity for the cut and
path searches, kernel algebra for the heat semigroup, convergence orders for
the evolution schemes, the harmonic flow contract, and bitwise CLI
determinism.  The whole file is budgeted to stay under a minute.
"""

import json
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import graphcalc as gc

from conftest import (
    FIXTURES,
    fn,
    make_c4,
    make_k2,
    make_k4,
    make_octahedron,
    make_p3,
    make_p5,
)
from helpers import (
    brute_bottleneck,
    brute_cheeger,
    grid_graph,
    grid_interior,
    random_connected_graph,
)

IDENTITY_KEYS = (
    "divergence_theorem",
    "green_symmetric",
    "green_vectorfield",
    "gradient_product_rule",
    "field_product_rule",
    "directional_vs_product",
    "hessian_trace",
)


# --- exact first-order identities ---------------------------------------


def test_a01_identity_suite_on_every_fixture():
    for name, make in FIXTURES.items():
        report = gc.run_identity_suite(make(), seed=11, trials=200)
        for key in IDENTITY_KEYS:
            assert report[key]["trials"] == 200, (name, key)
            assert report[key]["max_abs_residual"] <= 1e-12, (name, key)


# --- closed-form spectra -------------------------------------------------


def _orthonormality_residual(es):
    g = es.spec.graph
    inner = list(es.spec.interior)
    phis = np.array([[f.value(v) for v in inner] for f in es.functions])
    deg = np.array([g.degree(v) for v in inner], dtype=float)
    gram = (phis * deg) @ phis.T
    return float(np.max(np.abs(gram - np.eye(len(es.values)))))


def test_a02_closed_form_spectra_and_orthonormality():
    es_c4 = gc.eigensystem(gc.OperatorSpec(make_c4(), "none"))
    assert np.allclose(es_c4.values, (0.0, 1.0, 1.0, 2.0), rtol=0.0, atol=1e-10)

    es_k4 = gc.eigensystem(gc.OperatorSpec(make_k4(), "none"))
    third = 4.0 / 3.0
    assert np.allclose(es_k4.values, (0.0, third, third, third), rtol=0.0, atol=1e-10)

    p5 = make_p5()
    w = gc.build_window(p5, ["b", "c", "d"])
    es_p5 = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(es_p5.values, (1.0 - r, 1.0, 1.0 + r), rtol=0.0, atol=1e-10)

    for es in (es_c4, es_k4, es_p5):
        assert _orthonormality_residual(es) <= 1e-10


# --- variational characterization of every eigenvalue --------------------


def test_a03_rayleigh_characterization_every_fixture_every_index():
    for name, make in FIXTURES.items():
        g = make()
        specs = [gc.OperatorSpec(g, "none")]
        w = gc.canonical_window(g)
        specs.append(gc.OperatorSpec(w, "dirichlet"))
        for spec in specs:
            es = gc.eigensystem(spec)
            for j in range(1, len(es.values) + 1):
                rep = gc.courant_fischer_check(es, j, seed=3, samples=20, subspaces=50)
                # span of the first j eigenfunctions attains lambda_j ...
                assert rep.span_gap <= 1e-9, (name, j)
                # ... and no j-dimensional subspace can beat it from below
                assert rep.subspace_worst_excess >= -1e-9, (name, j)


# --- principal eigenvalue bounds from positive test functions ------------


def test_a04_positive_test_function_bound_and_tightness():
    for name, make in FIXTURES.items():
        g = make()
        w = gc.canonical_window(g)
        es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
        mu1 = es.values[0]
        rng = gc.Lcg64(29)
        for _ in range(100):
            u = gc.VertexFunction(g, {x: rng.uniform(0.05, 2.0) for x in w.closure})
            assert gc.barta_bound(w, None, u) <= mu1 + 1e-10, name
        ground = es.functions[0]
        sign = 1.0 if ground.value(w.interior[0]) > 0 else -1.0
        upos = gc.VertexFunction(g, {x: sign * ground.value(x) for x in w.closure})
        assert abs(gc.barta_bound(w, None, upos) - mu1) <= 1e-8, name


# --- isoperimetric constants vs exhaustive enumeration -------------------


def test_a05_cut_constants_match_enumeration():
    for name, make in FIXTURES.items():
        g = make()
        if len(g) > 12:
            continue  # only grid4
        for kind in ("h", "g"):
            value, rep = (gc.cheeger_h if kind == "h" else gc.cheeger_g)(g)
            want, witness_key = brute_cheeger(g, kind)
            assert value == float(want), (name, kind)
            assert tuple(g.index[v] for v in rep.subset) == witness_key, (name, kind)


def test_a05_functional_equals_cut_ratio_on_every_indicator():
    for name, make in FIXTURES.items():
        g = make()
        if len(g) > 12:
            continue
        for r in range(1, len(g)):
            for subset in combinations(g.vertices, r):
                ind = fn(g, {v: 1.0 if v in subset else 0.0 for v in g.vertices})
                want = gc.cut_report(g, subset).h_value
                assert gc.cheeger_functional(g, ind) == want, (name, subset)


# --- path levels vs exhaustive enumeration, saddle search ----------------


def test_a06_bottleneck_matches_exhaustive_paths():
    rng = gc.Lcg64(41)
    checked = 0
    while checked < 100:
        g = random_connected_graph(rng, n_min=4, n_max=10)
        f = gc.VertexFunction(g, {v: rng.uniform(0.0, 4.0) for v in g.vertices})
        src = g.vertices[rng.randint(len(g))]
        dst = g.vertices[rng.randint(len(g))]
        if src == dst:
            continue
        level, path = gc.bottleneck_level(g, f, src, dst)
        assert level == brute_bottleneck(g, f, src, dst)
        assert path[0] == src and path[-1] == dst
        checked += 1


def test_a06_octahedron_saddle_point():
    g = make_octahedron()
    vals = {"p1": 0.0, "m1": 0.0, "p2": 1.0, "m2": 1.0, "p3": 1.0, "m3": 1.0}
    f = gc.VertexFunction(g, vals)
    res = gc.find_minimax(g, f, "p1", "m1")
    assert res.level == 1.0
    cls = gc.classify_vertex(g, f, res.vertex)
    assert "minimax" in cls.kinds
    assert cls.witness is not None


# --- heat kernel algebra --------------------------------------------------


def _heat_specs():
    yield gc.OperatorSpec(make_c4(), "none", 0.4)
    p5 = make_p5()
    yield gc.OperatorSpec(gc.build_window(p5, ["b", "c", "d"]), "dirichlet")
    g = make_octahedron()
    yield gc.OperatorSpec(gc.canonical_window(g), "dirichlet", 0.25)


def test_a07_heat_kernel_reconstruction_and_semigroup():
    times = (0.1, 0.5, 1.0)
    for spec in _heat_specs():
        kern = gc.HeatKernel(gc.eigensystem(spec))
        deg = np.diag([spec.graph.degree(v) for v in spec.interior])
        n = len(spec.interior)
        assert np.max(np.abs(kern.matrix(0.0) @ deg - np.eye(n))) <= 1e-12
        for t in times:
            for s in times:
                gap = kern.matrix(t) @ deg @ kern.matrix(s) - kern.matrix(t + s)
                assert np.max(np.abs(gap)) <= 1e-10, (t, s)


def test_a07_heat_kernel_closed_form_on_path_window():
    p3 = make_p3()
    w = gc.build_window(p3, ["b"])
    kern = gc.HeatKernel(gc.eigensystem(gc.OperatorSpec(w, "dirichlet")))
    for t in (0.0, 0.1, 0.5, 1.0, 2.0):
        assert abs(kern.value(t, "b", "b") - math.exp(-t) / 2.0) <= 1e-12


# --- implicit variational flow -------------------------------------------


def test_a08_implicit_flow_first_order_with_certificates():
    p3 = make_p3()
    w = gc.build_window(p3, ["b"])
    phi = fn(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    ns = (4, 8, 16, 32, 64)
    errors = []
    for n in ns:
        run = gc.dmf_run(phi, 0.0, 1.0, n, w)
        for rep in run.reports:
            assert rep.certificate_ok, n
            assert rep.el_residual <= 1e-10, n
        assert run.audit_ok, n
        errors.append(abs(run.states[-1].value("b") - math.exp(-1.0)))
    assert errors == sorted(errors, reverse=True)
    slope = float(np.polyfit(np.log([1.0 / n for n in ns]), np.log(errors), 1)[0])
    assert slope >= 0.9


def test_a08_nonnegative_data_stays_nonnegative():
    p5 = make_p5()
    w = gc.build_window(p5, ["b", "c", "d"])
    phi = fn(p5, {"a": 0.0, "b": 1.0, "c": 0.2, "d": 0.6, "e": 0.0})
    for lam in (0.0, -0.7):
        run = gc.dmf_run(phi, lam, 1.0, 12, w)
        low = min(state.value(x) for state in run.states for x in state.domain)
        assert low >= -1e-15, lam


# --- transport integrator -------------------------------------------------


def test_a09_transport_closed_form_on_edge_graph():
    k2 = make_k2()
    w = gc.VectorField(k2, {("a", "b"): 1.0, ("b", "a"): -1.0})
    f0 = fn(k2, {"a": 0.0, "b": 1.0})
    traj = gc.transport_solve(k2, w, f0, 1.0, 1e-2)
    final = traj.states[-1]
    # closed form is f(t) = (t, 1 + t)
    assert abs(final.value("a") - 1.0) <= 1e-10
    assert abs(final.value("b") - 2.0) <= 1e-10


def test_a09_transport_self_convergence_order():
    c4 = make_c4()
    base = {}
    for x, y in c4.edges():
        base[(x, y)] = 1.0
        base[(y, x)] = -1.0

    def field(t):
        scale = 1.0 + 0.5 * math.sin(t)
        return gc.VectorField(c4, {k: v * scale for k, v in base.items()})

    f0 = gc.VertexFunction(c4, {"v0": 1.0, "v1": 0.0, "v2": -1.0, "v3": 0.5})
    finals = []
    for dt in (0.1, 0.05, 0.025):
        traj = gc.transport_solve(c4, field, f0, 1.0, dt)
        finals.append(np.array([traj.states[-1].value(v) for v in c4.vertices]))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    assert math.log2(e1 / e2) >= 3.8


# --- harmonic maps into the sphere ----------------------------------------


def test_a10_flow_reaches_geodesic_midpoint():
    p3 = make_p3()
    w = gc.build_window(p3, ["b"])
    u0 = gc.SphereMap(
        p3,
        {
            "a": gc.SpherePoint(1.0, 0.0, 0.0),
            "b": gc.SpherePoint(1.0, 1.0, 1.0),
            "c": gc.SpherePoint(0.0, 1.0, 0.0),
        },
    )
    res = gc.harmonic_heat_flow(u0, w, tol=1e-12)
    assert res.status == "converged"
    mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert np.max(np.abs(res.map.point("b").array - mid)) <= 1e-8


def test_a10_first_variation_matches_finite_differences():
    rng = gc.Lcg64(53)
    eps = 1e-6
    for make in (make_p3, make_c4, make_octahedron):
        g = make()
        for _ in range(6):
            points = {}
            for v in g.vertices:
                vec = np.array([rng.normal(), rng.normal(), rng.normal()])
                while float(np.linalg.norm(vec)) < 1e-3:
                    vec = np.array([rng.normal(), rng.normal(), rng.normal()])
                points[v] = gc.SpherePoint.from_array(vec)
            u = gc.SphereMap(g, points)
            x = g.vertices[rng.randint(len(g))]
            p = u.point(x)
            eta = np.array([rng.normal(), rng.normal(), rng.normal()])
            eta -= float(np.dot(eta, p.array)) * p.array
            eta /= float(np.linalg.norm(eta))
            want = 2.0 * g.degree(x) * float(np.dot(gc.first_variation(u, x), eta))
            e_plus = gc.map_energy(u.updated({x: gc.sphere_exp(p, eps * eta)}), g)
            e_minus = gc.map_energy(u.updated({x: gc.sphere_exp(p, -eps * eta)}), g)
            got = (e_plus - e_minus) / (2.0 * eps)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_a10_energy_nonincreasing_at_every_accepted_step():
    g = make_octahedron()
    w = gc.build_window(g, ["p1", "m1", "p2"])
    u0 = gc.SphereMap(
        g,
        {
            "p1": gc.SpherePoint(1.0, 0.2, -0.3),
            "m1": gc.SpherePoint(-0.2, 1.0, 0.4),
            "p2": gc.SpherePoint(0.1, -0.4, 1.0),
            "m2": gc.SpherePoint(0.0, 1.0, 0.0),
            "p3": gc.SpherePoint(0.0, 0.0, 1.0),
            "m3": gc.SpherePoint(1.0, 1.0, 1.0),
        },
    )
    res = gc.harmonic_heat_flow(u0, w, tol=1e-11, max_steps=500)
    assert res.status == "converged"
    energies = [entry[2] for entry in res.history]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-15 * max(1.0, before)
    assert res.final_energy <= res.initial_energy + 1e-15 * max(1.0, res.initial_energy)


# --- CLI determinism -------------------------------------------------------


def _battery(tmp_path):
    fixtures = dict(FIXTURES, k2=make_k2)
    paths = {}
    for name in ("p3", "p5", "c4", "k2", "k4", "octahedron", "grid4"):
        p = tmp_path / f"{name}.json"
        p.write_text(gc.write_graph(fixtures[name]()))
        paths[name] = str(p)

    fb = tmp_path / "fb.csv"
    fb.write_text("b,1\n")
    f0 = tmp_path / "f0.csv"
    f0.write_text("a,0\nb,1\n")
    f5 = tmp_path / "f5.csv"
    f5.write_text("b,1\nc,0.5\nd,0.25\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    saddle = tmp_path / "saddle.csv"
    saddle.write_text("p1,0\nm1,0\np2,1\nm2,1\np3,1\nm3,1\n")
    bnd = tmp_path / "bnd.csv"
    bnd.write_text("m1,1,0,0\nm2,0,1,0\np3,0,0,1\nm3,1,1,1\n")

    return [
        ["graph", paths["c4"]],
        ["spectrum", paths["grid4"], "--functions"],
        ["spectrum", paths["p5"], "--bc", "dirichlet", "--interior", "b,c,d"],
        ["cheeger", paths["octahedron"]],
        ["minimax", paths["octahedron"], str(saddle), "--src", "p1", "--dst", "m1"],
        ["heat", paths["p5"], str(f5), "--bc", "dirichlet", "--interior", "b,c,d",
         "--t-final", "1", "--steps", "8"],
        ["transport", paths["k2"], str(f0), "--field", str(field), "--t-final", "1", "--dt", "0.01"],
        ["dmf", paths["p3"], str(fb), "--interior", "b", "--t-final", "1", "--steps", "4"],
        ["harmonic", paths["octahedron"], "--interior", "p1,p2", "--boundary", str(bnd)],
        ["identities", paths["k4"], "--seed", "7", "--trials", "60"],
        ["monge", paths["c4"], "--sources", "v0,v1", "--targets", "v2,v3"],
    ]


def _run_cli(args, threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "graphcalc.cli", *args],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, (args[0], proc.stdout, proc.stderr)
    return proc.stdout


def test_a11_cli_bytes_stable_across_runs_and_thread_counts(tmp_path):
    for args in _battery(tmp_path):
        first = _run_cli(args, 1)
        assert _run_cli(args, 1) == first, args[0]
        assert _run_cli(args, 4) == first, args[0]


def test_flows_bytes_stable_across_thread_counts_on_larger_grids(tmp_path):
    # a guard beside a11 at sizes where BLAS matvecs do change bits between
    # thread counts: transport and the harmonic flow must not depend on them
    rng = gc.Lcg64(113)
    g15 = grid_graph(15)
    (tmp_path / "g15.json").write_text(gc.write_graph(g15))
    (tmp_path / "f15.csv").write_text(
        "".join(f"{v},{rng.uniform(-1.0, 1.0)!r}\n" for v in g15.vertices)
    )
    (tmp_path / "w15.csv").write_text(
        "".join(f"{x},{y},{rng.uniform(-1.0, 1.0)!r}\n" for x, y in g15.edges())
    )
    g12 = grid_graph(12)
    (tmp_path / "g12.json").write_text(gc.write_graph(g12))
    interior = grid_interior(12)
    rows = []
    for v in gc.build_window(g12, interior).boundary:
        i, j = (int(t) for t in v[1:].split("c"))
        th = math.atan2(i - 5.5, j - 5.5)
        rows.append(f"{v},{math.cos(th)!r},{math.sin(th)!r},{0.3 + 0.5 * math.sin(2 * th)!r}\n")
    (tmp_path / "b12.csv").write_text("".join(rows))
    battery = [
        ["transport", str(tmp_path / "g15.json"), str(tmp_path / "f15.csv"),
         "--field", str(tmp_path / "w15.csv"), "--profile", "sin",
         "--t-final", "1", "--dt", "0.01"],
        ["harmonic", str(tmp_path / "g12.json"), "--interior", ",".join(interior),
         "--boundary", str(tmp_path / "b12.csv")],
    ]
    for args in battery:
        assert _run_cli(args, 2) == _run_cli(args, 1), args[0]


def test_eigensolve_and_dmf_bytes_stable_across_thread_counts(tmp_path):
    # a guard beside a11 at n = 196, where LAPACK solves and eigensolves
    # change bits between BLAS thread counts: the dmf step solve and the
    # eigensolve behind spectrum --functions must not depend on them
    rng = gc.Lcg64(127)
    g16 = grid_graph(16)
    inner = grid_interior(16)
    (tmp_path / "g16.json").write_text(gc.write_graph(g16))
    (tmp_path / "f16.csv").write_text(
        "".join(f"{v},{rng.uniform(-1.0, 1.0)!r}\n" for v in inner)
    )
    (tmp_path / "g14.json").write_text(gc.write_graph(grid_graph(14)))
    battery = [
        ["dmf", str(tmp_path / "g16.json"), str(tmp_path / "f16.csv"),
         "--interior", ",".join(inner), "--potential", "0.5",
         "--t-final", "1", "--steps", "8"],
        ["spectrum", str(tmp_path / "g14.json"), "--bc", "none", "--functions"],
    ]
    for args in battery:
        assert _run_cli(args, 2) == _run_cli(args, 1), args[0]
