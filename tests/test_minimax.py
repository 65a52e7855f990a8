import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc

from conftest import FIXTURES
from helpers import brute_bottleneck, connected_graphs, grid_graph, random_connected_graph


def oct_saddle_function(g):
    vals = {"p1": 0.0, "m1": 0.0, "p2": 1.0, "m2": 1.0, "p3": 1.0, "m3": 1.0}
    return gc.VertexFunction(g, vals)


def test_classify_octahedron_saddle(octahedron):
    f = oct_saddle_function(octahedron)
    cls = gc.classify_vertex(octahedron, f, "p2")
    assert cls.kinds == ("local_max", "minimax")
    assert cls.notes == ()
    w = cls.witness
    assert w is not None
    assert set(w.anchor_high) == {"p3", "m3"}
    assert set(w.arc_plus) | set(w.arc_minus) == {"p3", "m3", "p1", "m1"}
    assert {w.dip_plus, w.dip_minus} == {"p1", "m1"}
    # dips sit on their own arcs at or below the center value
    assert w.dip_plus in w.arc_plus and w.dip_minus in w.arc_minus
    assert f.value(w.dip_plus) <= f.value("p2")
    assert f.value(w.dip_minus) <= f.value("p2")
    # arcs share only the anchors
    assert set(w.arc_plus) & set(w.arc_minus) == set(w.anchor_high)


def test_classify_extrema_and_notes(p3):
    peak = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    cls = gc.classify_vertex(p3, peak, "b")
    assert cls.kinds == ("strict_local_max", "local_max")
    assert cls.witness is None
    assert any("degree below 4" in n for n in cls.notes)
    pit = gc.VertexFunction(p3, {"a": 2.0, "b": 1.0, "c": 3.0})
    assert gc.classify_vertex(p3, pit, "b").kinds == ("strict_local_min", "local_min")
    slope = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 2.0})
    assert gc.classify_vertex(p3, slope, "b").kinds == ("regular",)


def test_classify_disconnected_neighborhood_note():
    # two triangles glued at x: degree 4 but N(x) splits into two components
    g = gc.Graph(
        ("x", "a1", "a2", "b1", "b2"),
        (("x", "a1"), ("x", "a2"), ("a1", "a2"), ("x", "b1"), ("x", "b2"), ("b1", "b2")),
    )
    f = gc.VertexFunction(g, {"x": 1.0, "a1": 0.0, "a2": 2.0, "b1": 0.0, "b2": 2.0})
    cls = gc.classify_vertex(g, f, "x")
    assert "minimax" not in cls.kinds
    assert any("not connected" in n for n in cls.notes)


def test_classify_degree_cap():
    leaves = tuple(f"u{i}" for i in range(gc.NEIGHBORHOOD_CAP + 1))
    g = gc.Graph(("hub",) + leaves, tuple(("hub", u) for u in leaves))
    f = gc.VertexFunction(g, {v: 0.0 for v in g.vertices})
    with pytest.raises(gc.ValidationError):
        gc.classify_vertex(g, f, "hub")


def test_bottleneck_frozen_c4(c4):
    f = gc.VertexFunction(c4, {"v0": 0.0, "v1": 3.0, "v2": 0.0, "v3": 4.0})
    level, path = gc.bottleneck_level(c4, f, "v0", "v2")
    assert level == 3.0
    assert path == ("v0", "v1", "v2")


def test_bottleneck_lex_tiebreak(c4):
    flat = gc.VertexFunction(c4, {v: 0.0 for v in c4.vertices})
    level, path = gc.bottleneck_level(c4, flat, "v0", "v2")
    assert level == 0.0
    assert path == ("v0", "v1", "v2")


def test_bottleneck_matches_brute_force_random():
    rng = gc.Lcg64(53)
    for trial in range(60):
        g = random_connected_graph(rng)
        f = gc.random_function(g, rng)
        src = g.vertices[rng.randint(len(g))]
        dst = g.vertices[rng.randint(len(g))]
        if src == dst:
            continue
        level, path = gc.bottleneck_level(g, f, src, dst)
        assert level == brute_bottleneck(g, f, src, dst), trial
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert b in g.neighbors(a)
        assert max(f.value(v) for v in path) == level


def test_bottleneck_matches_brute_force_fixtures():
    rng = gc.Lcg64(59)
    for name, make in FIXTURES.items():
        g = make()
        for _ in range(10):
            f = gc.random_function(g, rng)
            src, dst = g.vertices[0], g.vertices[-1]
            level, _ = gc.bottleneck_level(g, f, src, dst)
            assert level == brute_bottleneck(g, f, src, dst), name


def test_bottleneck_validation(c4):
    f = gc.VertexFunction(c4, {v: 0.0 for v in c4.vertices})
    two = gc.Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    g2 = gc.VertexFunction(two, {v: 0.0 for v in two.vertices})
    with pytest.raises(gc.ValidationError):
        gc.bottleneck_level(two, g2, "a", "c")
    with pytest.raises(gc.UnknownVertexError):
        gc.bottleneck_level(c4, f, "v0", "zz")


def test_find_minimax_octahedron(octahedron):
    f = oct_saddle_function(octahedron)
    res = gc.find_minimax(octahedron, f, "p1", "m1")
    assert res.level == 1.0
    assert res.vertex == "p2"
    assert res.path == ("p1", "p2", "m1")
    assert res.warnings == ()
    cls = gc.classify_vertex(octahedron, f, res.vertex)
    assert "minimax" in cls.kinds


def test_find_minimax_p5_warnings(p5):
    f = gc.VertexFunction(p5, {"a": 0.0, "b": 5.0, "c": 0.0, "d": 3.0, "e": 1.0})
    res = gc.find_minimax(p5, f, "a", "c")
    assert res.level == 5.0
    assert res.vertex == "b"
    assert res.path == ("a", "b", "c")
    assert any("degree 2 < 4" in w for w in res.warnings)
    assert any("not connected" in w for w in res.warnings)
    assert not any("no admissible detour" in w for w in res.warnings)


def test_find_minimax_reroute_success():
    g = gc.Graph(
        ("z0", "p", "q", "z1", "r", "t"),
        (("z0", "p"), ("p", "q"), ("q", "z1"), ("z0", "r"), ("r", "q"), ("p", "t")),
    )
    f = gc.VertexFunction(
        g, {"z0": 0.0, "p": 2.0, "q": 2.0, "z1": 0.0, "r": 1.0, "t": 0.0}
    )
    res = gc.find_minimax(g, f, "z0", "z1")
    assert res.level == 2.0
    assert res.vertex == "q"
    assert res.path == ("z0", "r", "q", "z1")
    assert not any("no admissible detour" in w for w in res.warnings)


def test_find_minimax_dead_end_warning():
    g = gc.Graph(
        ("z0", "x1", "mid", "x2", "z1", "w", "t", "s"),
        (
            ("z0", "x1"),
            ("x1", "mid"),
            ("mid", "x2"),
            ("x2", "z1"),
            ("z0", "w"),
            ("w", "mid"),
            ("x1", "t"),
            ("x2", "s"),
        ),
    )
    f = gc.VertexFunction(
        g,
        {
            "z0": 0.0,
            "x1": 2.0,
            "mid": 0.0,
            "x2": 2.0,
            "z1": 0.0,
            "w": 1.0,
            "t": 0.0,
            "s": 0.0,
        },
    )
    res = gc.find_minimax(g, f, "z0", "z1")
    assert res.level == 2.0
    assert res.vertex == "x2"
    assert res.path == ("z0", "w", "mid", "x2", "z1")
    assert any("no admissible detour" in w for w in res.warnings)


def test_find_minimax_level_is_bottleneck_level():
    rng = gc.Lcg64(61)
    found = 0
    for _ in range(80):
        g = random_connected_graph(rng)
        f = gc.random_function(g, rng)
        minima = [v for v in g.vertices if gc.is_local_min(f, v, strict=True)]
        if len(minima) < 2:
            continue
        z0, z1 = minima[0], minima[1]
        res = gc.find_minimax(g, f, z0, z1)
        level, _ = gc.bottleneck_level(g, f, z0, z1)
        assert res.level == level
        assert res.vertex in res.path
        assert f.value(res.vertex) == level
        found += 1
    assert found >= 10


def test_find_minimax_validation(p5):
    f = gc.VertexFunction(p5, {"a": 0.0, "b": 5.0, "c": 0.0, "d": 3.0, "e": 1.0})
    with pytest.raises(gc.ValidationError):
        gc.find_minimax(p5, f, "a", "a")
    with pytest.raises(gc.ValidationError):
        gc.find_minimax(p5, f, "a", "d")  # d is not a strict local minimum


def test_is_coercive_on_window(p5):
    w = gc.build_window(p5, ["b", "c", "d"])
    low_inside = gc.VertexFunction(p5, {"a": 2.0, "b": 0.0, "c": 1.0, "d": 0.5, "e": 3.0})
    assert gc.is_coercive_on_window(low_inside, w)
    flat = gc.VertexFunction(p5, {v: 1.0 for v in p5.vertices})
    assert not gc.is_coercive_on_window(flat, w)
    whole = gc.build_window(p5, list(p5.vertices))
    assert whole.boundary == ()
    assert not gc.is_coercive_on_window(low_inside, whole)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.data())
def test_bottleneck_level_is_the_joining_threshold(g, data):
    """The level is the least t at which z0 and z1 are joined in {f <= t}."""
    values = data.draw(st.lists(st.integers(-3, 3), min_size=len(g), max_size=len(g)))
    f = gc.VertexFunction(g, dict(zip(g.vertices, map(float, values))))
    z0, z1 = data.draw(st.lists(st.sampled_from(g.vertices), min_size=2, max_size=2))
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(g.vertices)
    for t in sorted(set(f.values.values())):
        below = G.subgraph(x for x in g.vertices if f.value(x) <= t)
        if z0 in below and z1 in below and nx.has_path(below, z0, z1):
            break
    level, path = gc.bottleneck_level(g, f, z0, z1)
    assert level == t
    assert max(f.value(x) for x in path) == t


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.data())
def test_every_witness_has_two_arcs_covering_the_neighborhood(g, data):
    """A witness's arcs run from x0 to x1, cover N(x) and share only x0 and x1."""
    pairs = [(a, b) for i, a in enumerate(g.vertices) for b in g.vertices[i + 1 :]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    extra = {e for e, k in zip(pairs, keep) if k}  # about half of all pairs
    dense = gc.Graph(g.vertices, sorted({tuple(sorted(e)) for e in g.edges()} | extra))
    values = data.draw(st.lists(st.integers(-2, 2), min_size=len(g), max_size=len(g)))
    f = gc.VertexFunction(dense, dict(zip(g.vertices, map(float, values))))
    for x in dense.vertices:
        w = gc.classify_vertex(dense, f, x).witness
        if w is None:
            continue
        x0, x1 = w.anchor_high
        for arc in (w.arc_plus, w.arc_minus):
            assert (arc[0], arc[-1]) == (x0, x1)
        assert set(w.arc_plus) | set(w.arc_minus) == set(dense.neighbors(x))
        assert set(w.arc_plus) & set(w.arc_minus) == {x0, x1}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.data())
def test_minimax_level_is_above_both_endpoints(g, data):
    """Each endpoint is a strict local minimum whose path neighbor is
    higher, and reroutes keep the endpoints, so the level is above f at
    both and the vertex returned is never an endpoint."""
    values = data.draw(st.lists(st.integers(-3, 3), min_size=len(g), max_size=len(g)))
    f = gc.VertexFunction(g, dict(zip(g.vertices, map(float, values))))
    minima = [x for x in g.vertices if gc.is_local_min(f, x, strict=True)]
    for z0 in minima:
        for z1 in minima:
            if z0 == z1:
                continue
            res = gc.find_minimax(g, f, z0, z1)
            assert res.level > max(f.value(z0), f.value(z1))
            assert (res.path[0], res.path[-1]) == (z0, z1)
            assert res.vertex not in (z0, z1)


def _triangulated_grid(k):
    g = grid_graph(k)
    diagonals = [(f"r{i}c{j}", f"r{i + 1}c{j + 1}") for i in range(k - 1) for j in range(k - 1)]
    return gc.Graph(g.vertices, g.edges() + tuple(diagonals))


# seed, the first and last strict local minima, level, vertex, path, warning
# count; seeds 15, 42 and 160 reroute two or three times, 13 once before a
# dead end
MINIMAX_FROZEN = [
    (13, "r0c4", "r4c3", 2.0, "r0c3", "r0c4 r0c3 r1c3 r2c3 r2c2 r3c2 r4c3", 1),
    (14, "r2c4", "r4c5", 1.0, "r3c4", "r2c4 r3c4 r4c5", 0),
    (15, "r2c5", "r6c6", 2.0, "r5c5", "r2c5 r2c4 r3c4 r4c4 r5c5 r6c6", 0),
    (42, "r1c5", "r5c0", 2.0, "r4c0", "r1c5 r1c4 r1c3 r1c2 r1c1 r2c1 r2c0 r3c1 r4c1 r4c0 r5c0", 0),
    (160, "r1c3", "r3c0", 2.0, "r1c0", "r1c3 r0c2 r0c1 r0c0 r1c0 r2c1 r3c1 r3c0", 0),
]


def test_find_minimax_frozen_on_triangulated_grids():
    for seed, z0, z1, level, vertex, path, n_warnings in MINIMAX_FROZEN:
        g = _triangulated_grid(4 + seed % 4)
        rng = gc.Lcg64(seed)
        f = gc.VertexFunction(g, {v: float(rng.randint(3)) for v in g.vertices})
        minima = [v for v in g.vertices if gc.is_local_min(f, v, strict=True)]
        assert (minima[0], minima[-1]) == (z0, z1)
        res = gc.find_minimax(g, f, z0, z1)
        assert (res.level, res.vertex, res.path) == (level, vertex, tuple(path.split()))
        assert len(res.warnings) == n_warnings, seed
