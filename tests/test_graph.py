import ast
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
from graphcalc.graph import column_sums, gather, scatter

from helpers import (
    brute_monge,
    connected_graphs,
    floyd_warshall,
    grid_graph,
    random_connected_graph,
)
from conftest import FIXTURES, make_c4, make_p5


def test_vertices_and_neighbors_keep_file_order(c4):
    assert c4.vertices == ("v0", "v1", "v2", "v3")
    assert c4.neighbors("v0") == ("v1", "v3")
    assert c4.neighbors("v3") == ("v0", "v2")
    assert c4.degree("v1") == 2


def test_edges_listed_once_in_file_order(c4):
    assert c4.edges() == (("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3"))


def test_graph_refuses_an_empty_vertex_list():
    # on a vertex-less graph these five calls raised a bare IndexError or
    # ZeroDivisionError; the graph itself is now refused with the loader's error
    calls = [
        lambda g: gc.weighted_median(g, gc.VertexFunction(g, {})),
        lambda g: gc.cheeger_functional(g, gc.VertexFunction(g, {})),
        lambda g: gc.run_identity_suite(g, 1, 1),
        lambda g: gc.canonical_window(g),
        lambda g: gc.spectral_heat_solve(gc.OperatorSpec(g, "none"), gc.VertexFunction(g, {}), [0.0]),
    ]
    for call in calls:
        with pytest.raises(gc.GraphParseError, match="^a graph needs at least one vertex$"):
            call(gc.Graph([], []))
    # the loader keeps its own message
    with pytest.raises(gc.GraphParseError, match="^'vertices' must be a nonempty list"):
        gc.parse_graph('{"vertices": [], "edges": []}')


def test_pair_arrays_follow_neighbor_order_and_are_built_lazily():
    for make in list(FIXTURES.values()) + [lambda: gc.Graph(["a", "b", "z"], [("a", "b")])]:
        g = make()
        assert "layout" not in vars(g)
        src, dst = g.layout.src, g.layout.dst
        want = [(g.index[x], g.index[y]) for x in g.vertices for y in g.neighbors(x)]
        assert list(zip(src.tolist(), dst.tolist())) == want
        assert g.layout.src is src and g.layout.interior_pairs == len(src)
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
        assert lay.interior_rows == k
        for a in (lay.deg, lay.src, lay.dst):
            with pytest.raises(ValueError):
                a[0] = 0


def test_layout_sums_add_each_neighborhood_in_order():
    # the one neighbor-sum kernel: per interior row, the values of the pairs
    # leaving it added in neighbor order from zero, as a Python loop adds them
    rng = np.random.default_rng(5)
    for region in _regions():
        lay, k = region.layout, len(region.interior)
        pairs = list(zip(lay.src[: lay.interior_pairs].tolist(), lay.dst.tolist()))
        one = rng.standard_normal(len(pairs)) * 10.0 ** rng.integers(-8, 8, len(pairs))
        stack = rng.standard_normal((len(pairs), 4))
        want_one, want_stack = [0.0] * k, [[0.0] * 4 for _ in range(k)]
        total_one, total_stack = 0.0, [0.0] * 4
        for p, (i, _) in enumerate(pairs):
            want_one[i] += float(one[p])
            total_one += float(one[p])
            for c in range(4):
                want_stack[i][c] += float(stack[p, c])
                total_stack[c] += float(stack[p, c])
        assert lay.sums(one).tolist() == want_one
        assert lay.sums(stack).tolist() == want_stack
        assert column_sums(one) == total_one
        assert column_sums(stack).tolist() == total_stack
        if lay.deg[:k].all():
            lay.check_interior_degrees()
        else:
            with pytest.raises(gc.ValidationError, match="^vertex 'z' is isolated$"):
                lay.check_interior_degrees()


def test_builtin_sum_adds_floats_left_to_right():
    # graph.column_sums, and the pointwise references in tests/helpers.py
    # that the array kernels match bit for bit, add floats in order from
    # zero as CPython 3.10 and 3.11's builtin sum does; 3.12 compensates
    assert sum([0.1] * 10) == 0.9999999999999999, (
        "builtin sum compensates float rounding on this interpreter, so the "
        "bit-for-bit agreement of graph.column_sums and the array kernels with "
        "the pointwise references in tests/helpers.py no longer holds"
    )
    assert column_sums(np.full(10, 0.1)) == sum([0.1] * 10)


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


def test_monge_runs_one_search_per_source(monkeypatch):
    g = grid_graph(6)
    bfs = gc.Graph.bfs
    roots = []

    def counting(self, root, within=None):
        roots.append(root)
        return bfs(self, root, within)

    monkeypatch.setattr(gc.Graph, "bfs", counting)
    sources, targets = g.vertices[:10], g.vertices[-10:]
    assert gc.monge_cost(g, sources, targets) == (50, (1, 2, 3, 4, 9, 10, 5, 6, 7, 8))
    assert roots == list(sources)


def test_monge_validation(c4):
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0"], ["v1", "v2"])  # size mismatch
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0", "v0"], ["v1", "v2"])  # repeats
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, ["v0"], ["v0"])  # overlap
    with pytest.raises(gc.ValidationError):
        gc.monge_cost(c4, [], [])  # empty
    names = [f"v{i}" for i in range(22)]
    path = gc.Graph(names, list(zip(names, names[1:])))
    with pytest.raises(gc.ValidationError, match="^size 11 exceeds exhaustive bound 10$"):
        gc.monge_cost(path, names[:11], names[11:])


def test_randint_refuses_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^randint needs n >= 1$"):
            gc.Lcg64(1).randint(n)


def test_normals_equal_repeated_normal_bit_for_bit():
    def previous(state, steps):
        inverse = pow(gc.rng.LCG_MULT, -1, 1 << 64)
        for _ in range(steps):
            state = (state - gc.rng.LCG_INC) * inverse & gc.rng.MASK64
        return state

    # the last two seeds reach a state below 2^11, so a first uniform of
    # zero: normal() redraws at the first and at the fourth normal
    seeds = [0, 1, 7, 2024, (1 << 64) - 1, previous(5, 1), previous(5, 7)]
    for seed in seeds:
        for k in (0, 1, 2, 3, 9, 108, 1000):
            one, batch = gc.Lcg64(seed), gc.Lcg64(seed)
            want = [one.normal().hex() for _ in range(k)]
            assert [x.hex() for x in batch.normals(k)] == want, (seed, k)
            assert batch.state == one.state, (seed, k)
    # the redraw is taken: four normals from previous(5, 7) use ten states
    batch, five = gc.Lcg64(previous(5, 7)), gc.Lcg64(5)
    batch.normals(4)
    assert batch.state == [five.next_u64() for _ in range(3)][-1]


def test_uniforms_equal_repeated_uniform_bit_for_bit():
    for seed in (0, 1, 7, 2024, (1 << 64) - 1):
        for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (2.5, 7.0)):
            for k in (0, 1, 2, 3, 50, 1001):
                one, batch = gc.Lcg64(seed), gc.Lcg64(seed)
                want = [one.uniform(lo, hi).hex() for _ in range(k)]
                got = batch.uniforms(k, lo, hi)
                assert got.dtype == np.float64 and got.shape == (k,)
                assert [x.hex() for x in got.tolist()] == want, (seed, lo, hi, k)
                assert batch.state == one.state, (seed, lo, hi, k)
    one, batch = gc.Lcg64(3), gc.Lcg64(3)
    assert batch.uniforms(4).tolist() == [one.uniform() for _ in range(4)]
    assert batch.state == one.state


def test_randint_refuses_a_range_past_64_bits():
    # above 2^64 no draw is below the rejection limit, so the loop never ends
    for n in (2**64 + 1, 2**65, 3 * 2**70):
        with pytest.raises(ValueError, match="^randint needs n <= 2\\*\\*64$"):
            gc.Lcg64(1).randint(n)
    # 2^64 is the widest range: every draw is accepted as it is
    one, wide = gc.Lcg64(1), gc.Lcg64(1)
    assert wide.randint(2**64) == one.next_u64()


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


def test_graph_rejects_a_repeated_edge_in_either_orientation():
    # a repeated edge used to be listed twice in edges() but once in the
    # adjacency, so Cheeger cuts counted it twice
    for edges, message in (
        ([("a", "b"), ("b", "c"), ("b", "a")], "edge 'b' -- 'a' listed twice"),
        ([("a", "b"), ("a", "b")], "edge 'a' -- 'b' listed twice"),
    ):
        with pytest.raises(gc.DuplicateEdgeError, match=f"^{message}$"):
            gc.Graph(["a", "b", "c"], edges)
    doc = '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["b", "a"]]}'
    with pytest.raises(gc.DuplicateEdgeError, match="^edge 'b' -- 'a' listed twice$"):
        gc.parse_graph(doc)


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


def _bfs_reference(g, root, within=None):
    """networkx's breadth-first predecessors from root, neighbors in file
    order, over the subgraph on within and the root."""
    G = _nx(g) if within is None else _nx(g).subgraph({root, *within})
    order = nx.bfs_predecessors(G, root, sort_neighbors=lambda vs: sorted(vs, key=g.index.get))
    return [(root, None), *order]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.data())
def test_bfs_matches_networkx(g, data):
    root = data.draw(st.sampled_from(g.vertices))
    assert list(g.bfs(root).items()) == _bfs_reference(g, root)
    for _ in range(5):
        within = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
        assert list(g.bfs(root, within).items()) == _bfs_reference(g, root, within)


# per graph: n, canonical window interior, distances from v0 in file order,
# and the monge matching of the first n // 2 vertices to the last n // 2
BFS_CONSUMERS_FROZEN = [
    (8, "v0 v1 v2 v6", (0, 1, 2, 3, 4, 5, 2, 3), (8, (1, 3, 4, 2))),
    (12, "v0 v1 v2 v3 v4 v10", (0, 1, 1, 2, 1, 2, 2, 2, 2, 3, 1, 2), (8, (5, 2, 6, 4, 1, 3))),
    (10, "v0 v1 v2 v7 v9", (0, 1, 2, 3, 4, 5, 6, 1, 4, 1), (9, (3, 5, 1, 4, 2))),
    (8, "v0 v1 v2 v6", (0, 1, 1, 2, 2, 3, 1, 2), (4, (3, 4, 1, 2))),
    (7, "v0 v1 v2 v4", (0, 1, 2, 3, 2, 2, 3), (6, (1, 2, 3))),
    (9, "v0 v1 v2 v3 v4", (0, 1, 2, 2, 2, 2, 3, 4, 3), (11, (1, 2, 3, 4))),
    (
        14,
        "v0 v1 v2 v3 v6 v9 v10",
        (0, 1, 2, 1, 2, 3, 2, 3, 2, 2, 2, 3, 2, 3),
        (12, (3, 4, 5, 2, 6, 7, 1)),
    ),
    (12, "v0 v1 v2 v3 v4 v6", (0, 1, 1, 2, 2, 3, 2, 2, 3, 4, 2, 3), (11, (1, 4, 2, 5, 3, 6))),
]


def test_bfs_consumers_frozen_on_random_graphs():
    rng = gc.Lcg64(2024)
    for n, interior, dist, monge in BFS_CONSUMERS_FROZEN:
        g = random_connected_graph(rng, 6, 14)
        assert len(g) == n
        assert gc.canonical_window(g).interior == tuple(interior.split())
        assert tuple(gc.graph_distance(g, "v0", v) for v in g.vertices) == dist
        k = n // 2
        assert gc.monge_cost(g, g.vertices[:k], g.vertices[n - k :]) == monge


def test_only_graph_py_queues_vertices():
    """Every breadth-first search is Graph.bfs, so the visiting order that
    fixes canonical windows, detours and distances is decided once."""
    src = Path(gc.__file__).parent
    for path in sorted(src.glob("*.py")):
        uses = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id == "deque"
            or isinstance(node, ast.Attribute) and node.attr == "deque"
            or isinstance(node, ast.alias) and node.name == "deque"
        ]
        assert bool(uses) == (path.name == "graph.py"), (path.name, uses)
