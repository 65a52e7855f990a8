import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
from graphcalc import constants

from conftest import FIXTURES, make_c4, make_k2, make_k4, make_p3, make_star4
from helpers import (
    brute_cheeger,
    complete_graph,
    connected_graphs,
    cycle_graph,
    grid_graph,
    lex_smallest_reference,
    pointwise_cheeger_functional,
    pointwise_weighted_median,
    random_connected_graph,
)

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


@pytest.mark.parametrize("chunk", [constants._CHUNK, 8], ids=["default", "8"])
def test_cheeger_many_ties_match_brute_force(monkeypatch, chunk):
    # every subset of a given size ties on a complete graph, and every arc
    # of a given length on a cycle, so the witness rule decides the result
    monkeypatch.setattr(constants, "_CHUNK", chunk)
    for g in [complete_graph(n) for n in range(5, 11)] + [cycle_graph(n) for n in range(8, 13)]:
        _assert_matches_brute_force(g)


def test_cheeger_chunk_invariance(monkeypatch):
    # chunks of 8 and 64 masks leave 8 to 12 and 5 to 9 high vertices
    rng = gc.Lcg64(59)
    real = constants._CHUNK
    for n in range(12, 17):
        g = random_connected_graph(rng, n, n)
        got = []
        for chunk in (8, 64, 1 << 18, real):
            monkeypatch.setattr(constants, "_CHUNK", chunk)
            got.append(gc.cheeger_constants(g))
        assert got[0] == got[1] == got[2] == got[3], n


def test_cheeger_frozen_values_at_enumeration_cap():
    grid = grid_graph(4, 6)
    assert len(grid) == gc.ENUMERATION_VERTEX_CAP
    h, hrep, gv, grep = gc.cheeger_constants(grid)
    assert h == 2 / 19 and gv == 2 / 19
    assert hrep.subset == tuple(f"r{i}c{j}" for i in range(4) for j in range(3))
    assert grep.subset == (
        ("r0c0", "r0c1", "r0c2", "r0c3", "r1c0", "r1c1", "r1c2")
        + ("r2c0", "r2c1", "r2c2", "r3c0", "r3c1")
    )
    assert (hrep.h_value, grep.g_value) == (h, gv)
    k24 = complete_graph(24)
    h, hrep, gv, grep = gc.cheeger_constants(k24)
    assert h == 12 / 23 and gv == 1 / 23
    half = tuple(f"v{i}" for i in range(12))
    assert hrep.subset == half and grep.subset == half


def test_running_min_keeps_one_witness(monkeypatch):
    monkeypatch.setattr(constants, "_CHUNK", 8)
    update = constants._RunningMin.update
    updates = []

    def checked(self, *pairs):
        update(self, *pairs)
        assert vars(self).keys() == {"best", "mask"}
        assert type(self.mask) is int
        updates.append(self.mask)

    monkeypatch.setattr(constants._RunningMin, "update", checked)
    gc.cheeger_constants(cycle_graph(10))
    assert len(updates) == 2 * (1 << 9) // 8


def test_lex_smallest_matches_reference():
    rng = np.random.default_rng(67)
    cases = [
        [0b011, 0b111],  # (0, 1) against (0, 1, 2): the prefix wins
        [0b111, 0b011],
        [0b0111, 0b1011, 0b0011],
        [0b101, 0b011, 0b110],
        [0b1],
        [1 << 23],
        [0b1011, 0b1011],
    ]
    for _ in range(400):
        n = int(rng.integers(1, 25))
        cases.append(rng.integers(1, 1 << n, int(rng.integers(1, 40))).tolist())
    for _ in range(100):
        # a mask and its extensions by vertices above its highest
        m = int(rng.integers(1, 1 << 12))
        top = m.bit_length()
        extra = rng.integers(1, 1 << (24 - top), int(rng.integers(1, 6))) << top
        cases.append(rng.permutation([m] + [m | int(e) for e in extra]).tolist())
    for case in cases:
        masks = np.array(case, np.uint32)
        assert constants._lex_smallest(masks) == lex_smallest_reference(case, 24), case


def test_tie_picks_match_reference(monkeypatch):
    # chunk p holds the masks 1 | j << 1 | p << L in order; inside and
    # outside settle ties by one arg-extremum wherever the tied subsets, or
    # their complements, share a nonempty high part, and by _lex_smallest
    # in the first chunk and for the last chunk's complements
    rng = np.random.default_rng(71)
    for n, chunk in ((9, 8), (12, 64), (16, 1 << 10), (6, 64)):
        monkeypatch.setattr(constants, "_CHUNK", chunk)
        low_n = min(n, chunk.bit_length())
        full = (1 << n) - 1
        for pattern, (h, _, _, inside, outside) in enumerate(
            constants._enumerate_cuts(complete_graph(n))
        ):
            masks = [1 | j << 1 | pattern << low_n for j in range(h.size)]
            for _ in range(12):
                k = int(rng.integers(1, min(h.size, 40) + 1)) if rng.random() < 0.8 else h.size
                idx = np.sort(rng.choice(h.size, k, replace=False))
                tied = [masks[i] for i in idx]
                assert inside(idx) == lex_smallest_reference(tied, n), (n, chunk, pattern)
                want = lex_smallest_reference([full ^ m for m in tied], n)
                assert outside(idx) == want, (n, chunk, pattern)


def test_cheeger_enumeration_memory_stays_cache_sized():
    # a chunk's tables and temporaries take about 1.2 MB at the cap; with
    # chunks of 2^18 masks the peak was 16.5 MB
    grid = grid_graph(4, 6)
    tracemalloc.start()
    try:
        gc.cheeger_constants(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


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


def _assert_functional_matches_pointwise(g, f):
    assert gc.weighted_median(g, f).hex() == pointwise_weighted_median(g, f).hex()
    try:
        want = pointwise_cheeger_functional(g, f).hex()
    except gc.ValidationError as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            gc.cheeger_functional(g, f)
    else:
        assert gc.cheeger_functional(g, f).hex() == want


def test_functional_matches_pointwise_reference_on_fixtures():
    rng = gc.Lcg64(71)
    for g in map(lambda make: make(), FIXTURES.values()):
        for _ in range(10):
            _assert_functional_matches_pointwise(g, gc.random_function(g, rng))
        # ties at the median, and a constant function
        for k in (1, 2, 3):
            f = gc.VertexFunction(g, {v: float(i % k) for i, v in enumerate(g.vertices)})
            _assert_functional_matches_pointwise(g, f)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32))
def test_functional_matches_pointwise_reference_property(g, seed):
    rng = gc.Lcg64(seed)
    _assert_functional_matches_pointwise(g, gc.random_function(g, rng))
    levels = {v: float(rng.randint(3)) for v in g.vertices}
    _assert_functional_matches_pointwise(g, gc.VertexFunction(g, levels))


def test_functional_partial_function_names_first_edge_vertex():
    # the edge sum reaches c before the vertex order reaches a
    g = gc.Graph(["a", "b", "c"], [("b", "c"), ("a", "b")])
    f = gc.VertexFunction(g, {"b": 1.0})
    with pytest.raises(gc.DomainError, match="'c'"):
        pointwise_cheeger_functional(g, f)
    with pytest.raises(gc.DomainError, match="'c'"):
        gc.cheeger_functional(g, f)
    with pytest.raises(gc.DomainError, match="'a'"):
        gc.weighted_median(g, f)
    # no edge reaches an isolated vertex, so the vertex-order error stands
    g = gc.Graph(["a", "b", "z"], [("a", "b")])
    f = gc.VertexFunction(g, {"a": 0.0, "b": 1.0})
    with pytest.raises(gc.DomainError, match="^function not defined at 'z'$"):
        gc.cheeger_functional(g, f)


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
    with pytest.raises(gc.ValidationError, match="^cheeger constants need at least 2 vertices$"):
        gc.cheeger_constants(gc.Graph(["a"], []))


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
    with pytest.raises(gc.ValidationError, match="^neumann poincare constant needs at least 2 vertices$"):
        gc.poincare_neumann_constant(gc.Graph(["a"], []))
