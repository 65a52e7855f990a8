import pytest

import graphcalc as gc

from helpers import brute_monge, floyd_warshall
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
