"""Independent brute-force oracles.

Everything here recomputes results from first principles with none of the
package's algorithmic shortcuts: Fractions instead of floats, exhaustive
enumeration instead of heaps or bitmask chunking, numpy's LAPACK eigensolver
instead of the package Jacobi.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

import graphcalc as gc


def floyd_warshall(g: gc.Graph) -> dict:
    INF = float("inf")
    dist = {(x, y): (0 if x == y else INF) for x in g.vertices for y in g.vertices}
    for x, y in g.edges():
        dist[(x, y)] = 1
        dist[(y, x)] = 1
    for k in g.vertices:
        for i in g.vertices:
            for j in g.vertices:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def brute_cheeger(g: gc.Graph, kind: str):
    """(value as Fraction, lexicographically smallest witness index tuple)."""
    n = len(g)
    idx = g.index
    best = None
    witness = None
    for mask in range(1, (1 << n) - 1):
        inside = {v for v in g.vertices if mask >> idx[v] & 1}
        vol_in = sum(g.degree(v) for v in inside)
        vol_out = sum(g.degree(v) for v in g.vertices if v not in inside)
        if kind == "h":
            num = sum(1 for x, y in g.edges() if (x in inside) != (y in inside))
        else:
            num = sum(
                1
                for v in g.vertices
                if v not in inside and any(u in inside for u in g.neighbors(v))
            )
        val = Fraction(num, min(vol_in, vol_out))
        key = tuple(sorted(idx[v] for v in inside))
        if best is None or val < best or (val == best and key < witness):
            best = val
            witness = key
    return best, witness


def all_simple_paths(g: gc.Graph, src: str, dst: str):
    path = [src]
    seen = {src}

    def walk(v):
        if v == dst:
            yield tuple(path)
            return
        for w in g.neighbors(v):
            if w not in seen:
                path.append(w)
                seen.add(w)
                yield from walk(w)
                path.pop()
                seen.remove(w)

    yield from walk(src)


def brute_bottleneck(g: gc.Graph, f: gc.VertexFunction, src: str, dst: str):
    best = None
    for p in all_simple_paths(g, src, dst):
        level = max(f.value(v) for v in p)
        if best is None or level < best:
            best = level
    return best


def brute_monge(g: gc.Graph, sources, targets):
    dist = floyd_warshall(g)
    best = None
    for perm in itertools.permutations(range(len(targets))):
        cost = sum(dist[(s, targets[j])] for s, j in zip(sources, perm))
        if best is None or cost < best:
            best = cost
    return best


def eig_oracle(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(matrix)


def random_connected_graph(rng: gc.Lcg64, n_min: int = 4, n_max: int = 10) -> gc.Graph:
    """Random spanning tree plus a few extra edges; sparse enough that the
    exhaustive path oracle stays fast."""
    n = n_min + rng.randint(n_max - n_min + 1)
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randint(i)
        edges.add((names[j], names[i]))
    extras = rng.randint(max(1, n // 2) + 1)
    for _ in range(extras):
        i = rng.randint(n)
        j = rng.randint(n)
        if i == j:
            continue
        a, b = (names[min(i, j)], names[max(i, j)])
        edges.add((a, b))
    return gc.Graph(names, sorted(edges))


@st.composite
def connected_graphs(draw):
    """Hypothesis strategy: a random spanning tree plus up to n extra edges."""
    n = draw(st.integers(2, 9))
    names = [f"v{i}" for i in range(n)]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return gc.Graph(names, [(names[i], names[j]) for i, j in sorted(edges)])
