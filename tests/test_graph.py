import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
from graphcalc.graph import gather, scatter

from helpers import brute_monge, connected_graphs, floyd_warshall, grid_graph
from conftest import FIXTURES, make_c4, make_p5


def test_vertices_and_neighbors_keep_file_order(c4):
    assert c4.vertices == ("v0", "v1", "v2", "v3")
    assert c4.neighbors("v0") == ("v1", "v3")
    assert c4.neighbors("v3") == ("v0", "v2")
    assert c4.degree("v1") == 2


def test_edges_listed_once_in_file_order(c4):
    assert c4.edges() == (("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3"))


def test_pair_arrays_follow_neighbor_order_and_are_built_lazily():
    for make in list(FIXTURES.values()) + [lambda: gc.Graph(["a", "b", "z"], [("a", "b")])]:
        g = make()
        assert "pair_arrays" not in vars(g)
        src, dst = g.pair_arrays
        want = [(g.index[x], g.index[y]) for x in g.vertices for y in g.neighbors(x)]
        assert list(zip(src.tolist(), dst.tolist())) == want
        assert g.pair_arrays[0] is src
        with pytest.raises(ValueError):
            src[0] = 0
        with pytest.raises(ValueError):
            dst[0] = 0


def _regions():
    for make in FIXTURES.values():
        g = make()
        yield g
        yield gc.canonical_window(g)
    g = grid_graph(5)
    yield gc.build_window(g, ["r1c1", "r1c2", "r2c1", "r2c2", "r3c3", "r2c3"])
    yield gc.build_window(gc.Graph(["a", "b", "z"], [("a", "b")]), ["z"])


def test_region_layout_rows_degrees_and_closure_pairs():
    for region in _regions():
        g, closure, k = region.graph, region.closure, len(region.interior)
        assert "layout" not in vars(region)
        lay = region.layout
        assert region.layout is lay
        assert lay.rows == {x: i for i, x in enumerate(closure)}
        assert lay.deg.tolist() == [float(g.degree(x)) for x in closure]
        want = [(lay.rows[x], lay.rows[y]) for x in closure for y in g.neighbors(x) if y in lay.rows]
        assert list(zip(lay.src.tolist(), lay.dst.tolist())) == want
        assert lay.interior_pairs == sum(1 for i, _ in want if i < k)
        for a in (lay.deg, lay.src, lay.dst):
            with pytest.raises(ValueError):
                a[0] = 0
    for make in FIXTURES.values():
        g = make()
        assert g.pair_arrays[0] is g.layout.src and g.pair_arrays[1] is g.layout.dst


def test_gather_and_scatter(p5):
    f = gc.VertexFunction(p5, {"e": -0.0, "b": 2.5, "c": 5e-324})
    assert gather(f, ("c", "e", "b")).tolist() == [5e-324, -0.0, 2.5]
    assert math.copysign(1.0, gather(f, ("e",))[0]) == -1.0
    with pytest.raises(gc.DomainError, match="not defined at 'd'"):
        gather(f, ("b", "d", "a"))
    with pytest.raises(gc.UnknownVertexError, match="unknown vertex 'zz'"):
        gather(f, ("b", "zz"))
    h = scatter(p5, ("d", "a", "c"), np.array([1.0, 2.0, 3.0]))
    assert h.domain == ("a", "c", "d")
    assert h.values == gc.VertexFunction(p5, {"d": 1.0, "a": 2.0, "c": 3.0}).values


def test_unknown_vertex_rejected(c4):
    with pytest.raises(gc.UnknownVertexError):
        c4.neighbors("nope")
    with pytest.raises(gc.UnknownVertexError):
        c4.check_vertex("nope")


def test_check_edge(c4):
    c4.check_edge("v0", "v1")
    with pytest.raises(gc.NotAdjacentError):
        c4.check_edge("v0", "v2")


def test_volume(c4, k4, star4):
    assert gc.volume(c4, c4.vertices) == 8
    assert gc.volume(k4, k4.vertices) == 12
    assert gc.volume(star4, ["center"]) == 3
    assert gc.volume(star4, ["u1", "u2"]) == 2


def test_distance_matches_floyd_warshall():
    for name, make in FIXTURES.items():
        g = make()
        oracle = floyd_warshall(g)
        for x in g.vertices:
            for y in g.vertices:
                assert gc.graph_distance(g, x, y) == oracle[(x, y)], (name, x, y)


def test_distance_unreachable():
    g = gc.Graph(["a", "b", "c"], [("a", "b")])
    assert gc.graph_distance(g, "a", "c") is None


def test_connectivity():
    g = gc.Graph(["a", "b", "c"], [("a", "b")])
    assert not g.is_connected()
    assert g.is_connected(within=["a", "b"])
    assert make_c4().is_connected()


def test_build_window_p5():
    g = make_p5()
    w = gc.build_window(g, ["b", "c", "d"])
    assert w.interior == ("b", "c", "d")
    assert w.boundary == ("a", "e")
    assert w.closure == ("b", "c", "d", "a", "e")


def test_build_window_rejects_disconnected_interior():
    g = make_p5()
    with pytest.raises(gc.DisconnectedInteriorError):
        gc.build_window(g, ["b", "d"])


def test_build_window_rejects_repeats_and_empty(p3):
    with pytest.raises(gc.ValidationError):
        gc.build_window(p3, [])
    with pytest.raises(gc.ValidationError):
        gc.build_window(p3, ["b", "b"])


def test_vertex_function_domain(p3):
    f = gc.VertexFunction(p3, {"a": 1.0, "b": 2.0})
    assert f.domain == ("a", "b")
    assert "c" not in f
    with pytest.raises(gc.DomainError):
        f.value("c")
    with pytest.raises(gc.UnknownVertexError):
        f.value("zz")
    assert f.restrict(["a"]).domain == ("a",)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(gc.ValidationError, match="value at 'b' is not finite"):
            gc.VertexFunction(p3, {"a": 1.0, "b": bad, "c": bad})


def test_monge_frozen_values():
    c4 = make_c4()
    cost, assignment = gc.monge_cost(c4, ["v0", "v1"], ["v2", "v3"])
    assert cost == 2
    assert assignment == (2, 1)
    p5 = make_p5()
    assert gc.monge_cost(p5, ["a"], ["e"]) == (4, (1,))


def test_monge_matches_permutation_oracle():
    rng = gc.Lcg64(42)
    for name, make in FIXTURES.items():
        g = make()
        verts = list(g.vertices)
        for _ in range(5):
            pool = list(verts)
            rng.shuffle(pool)
            k = 1 + rng.randint(min(3, len(pool) // 2))
            sources, targets = pool[:k], pool[k : 2 * k]
            cost, assignment = gc.monge_cost(g, sources, targets)
            assert cost == brute_monge(g, sources, targets), name
            # the reported assignment must realize the reported cost
            dist = floyd_warshall(g)
            realized = sum(
                dist[(s, targets[j - 1])] for s, j in zip(sources, assignment)
            )
            assert realized == cost
            assert sorted(assignment) == list(range(1, k + 1))


def test_monge_validation(c4):
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0"], ["v1", "v2"])  # size mismatch
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0", "v0"], ["v1", "v2"])  # repeats
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0"], ["v0"])  # overlap
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, [], [])  # empty


def test_monge_unreachable_pair():
    g = gc.Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(g, ["a"], ["c"])


def test_graph_construction_validation():
    with pytest.raises(gc.ValidationError):
        gc.Graph(["a", "a"], [])
    with pytest.raises(gc.ValidationError):
        gc.Graph(["a", "b"], [("a", "a")])
    with pytest.raises(gc.ValidationError):
        gc.Graph(["a", "b"], [("a", "c")])


def _nx(g):
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    return G


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(connected_graphs())
def test_distance_matches_networkx(g):
    lengths = dict(nx.all_pairs_shortest_path_length(_nx(g)))
    for x in g.vertices:
        for y in g.vertices:
            assert gc.graph_distance(g, x, y) == lengths[x][y]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.data())
def test_connectivity_within_matches_networkx(g, data):
    G = _nx(g)
    for _ in range(5):
        within = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, unique=True))
        assert g.is_connected(within=within) == nx.is_connected(G.subgraph(within))
