"""Finite simple graphs, boundary windows, and vertex functions.

A graph is a finite set of opaque string vertex ids with undirected edges and
no self-loops.  Vertex order is the stable file order in which the ids were
given; every deterministic tie-break in the package (neighbor order, witness
order, lexicographic path order) refers to that order, not to string sorting.

A window is a connected interior vertex set S together with its vertex
boundary (outside neighbors) and closure.  A graph is also a region: the
window whose interior and closure are all of its vertices and whose boundary
is empty, so every operator takes either one as its region.  Each region
caches one layout of array rows for its closure; gather and scatter move a
vertex function to and from those arrays.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DisconnectedInteriorError,
    DomainError,
    NotAdjacentError,
    UnknownVertexError,
    ValidationError,
)

MONGE_EXHAUSTIVE_BOUND = 10


class Graph:
    """Undirected simple graph over opaque string vertex ids.

    Parameters
    ----------
    vertices : sequence of str
        Vertex ids in stable order.  Duplicates are rejected.
    edges : iterable of (str, str)
        Undirected edges.  Self-loops and repeated edges are rejected by the
        file loader; the constructor assumes validated input but still
        normalizes and checks membership.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex id in vertex list")
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        edge_list = []
        for x, y in edges:
            if x not in self.index or y not in self.index:
                raise UnknownVertexError(f"edge endpoint not in vertex list: ({x}, {y})")
            if x == y:
                raise ValidationError(f"self-loop at {x}")
            nbrs[x].add(y)
            nbrs[y].add(x)
            edge_list.append((x, y))
        # neighbor order is file order, the package-wide deterministic order
        self._nbrs: dict[str, tuple[str, ...]] = {
            v: tuple(sorted(nbrs[v], key=self.index.__getitem__)) for v in self.vertices
        }
        self._edges: tuple[tuple[str, str], ...] = tuple(
            (x, y) if self.index[x] < self.index[y] else (y, x) for x, y in edge_list
        )

    # the region interface of SubgraphWindow: the whole graph is the window
    # over all of its vertices, with an empty boundary
    boundary: tuple[str, ...] = ()

    @property
    def graph(self) -> "Graph":
        return self

    @property
    def interior(self) -> tuple[str, ...]:
        return self.vertices

    @property
    def closure(self) -> tuple[str, ...]:
        return self.vertices

    def __contains__(self, x: str) -> bool:
        return x in self.index

    def __len__(self) -> int:
        return len(self.vertices)

    def check_vertex(self, x: str) -> str:
        if x not in self.index:
            raise UnknownVertexError(f"unknown vertex {x!r}")
        return x

    def neighbors(self, x: str) -> tuple[str, ...]:
        """Neighbors of x in file order."""
        self.check_vertex(x)
        return self._nbrs[x]

    def stencil(self, x: str) -> tuple[str, ...]:
        """Neighbors of x in file order; x must have at least one."""
        nbrs = self._nbrs.get(x)
        if not nbrs:
            self.check_vertex(x)
            raise ValidationError(f"vertex {x!r} is isolated")
        return nbrs

    def degree(self, x: str) -> int:
        return len(self.neighbors(x))

    def has_edge(self, x: str, y: str) -> bool:
        self.check_vertex(x)
        self.check_vertex(y)
        return y in self._nbrs[x]

    def check_edge(self, x: str, y: str) -> None:
        if not self.has_edge(x, y):
            raise NotAdjacentError(f"({x}, {y}) is not an edge")

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Undirected edges, each once, endpoints in file order."""
        return self._edges

    @property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays (src, dst) of the ordered adjacent pairs,
        sources in file order, targets in neighbor order: the layout's pairs."""
        return self.layout.src, self.layout.dst

    @cached_property
    def layout(self) -> "RegionLayout":
        """The graph's region layout, rows in file order.  Built on first use."""
        return _region_layout(self, self.vertices, self.vertices)

    def is_connected(self, within: Optional[Iterable[str]] = None) -> bool:
        verts = list(self.vertices) if within is None else [self.check_vertex(v) for v in within]
        if not verts:
            return False
        allowed = set(verts)
        seen = {verts[0]}
        queue = deque([verts[0]])
        while queue:
            v = queue.popleft()
            for w in self._nbrs[v]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(allowed)


def volume(g: Graph, region: Iterable[str]) -> int:
    """Degree-weighted volume of a vertex set: sum of ambient degrees."""
    return sum(g.degree(g.check_vertex(x)) for x in region)


def graph_distance(g: Graph, x0: str, x1: str) -> Optional[int]:
    """Shortest path length in edges between x0 and x1.

    Returns 0 for x0 == x1 and None when x1 is unreachable from x0.
    """
    g.check_vertex(x0)
    g.check_vertex(x1)
    if x0 == x1:
        return 0
    dist = {x0: 0}
    queue = deque([x0])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == x1:
                    return dist[w]
                queue.append(w)
    return None


@dataclass(frozen=True)
class SubgraphWindow:
    """Connected interior S with vertex boundary and closure, in file order."""

    graph: Graph
    interior: tuple[str, ...]
    boundary: tuple[str, ...]

    @property
    def closure(self) -> tuple[str, ...]:
        return self.interior + self.boundary

    @cached_property
    def layout(self) -> "RegionLayout":
        """The window's region layout.  Built on first use."""
        return _region_layout(self.graph, self.interior, self.closure)


Region = Union[Graph, SubgraphWindow]


@dataclass(frozen=True, eq=False)
class RegionLayout:
    """Array rows of a region's closure, shared by every array kernel.

    rows maps each closure vertex to its row: interior rows first, then the
    boundary, as in region.closure.  deg holds each row's ambient degree.
    src and dst are the rows of the ordered adjacent pairs with both ends in
    the closure, sorted by source row and then in neighbor order; the first
    interior_pairs of them leave an interior vertex.  The arrays are
    read-only.
    """

    rows: dict[str, int]
    deg: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    interior_pairs: int


def _region_layout(g: Graph, interior: tuple[str, ...], closure: tuple[str, ...]) -> RegionLayout:
    rows = {x: i for i, x in enumerate(closure)}
    nbr_rows = [[rows[y] for y in g._nbrs[x] if y in rows] for x in closure]
    src = np.repeat(np.arange(len(closure)), [len(r) for r in nbr_rows])
    dst = np.array([j for r in nbr_rows for j in r], dtype=np.intp)
    deg = np.array([len(g._nbrs[x]) for x in closure], dtype=float)
    deg.flags.writeable = src.flags.writeable = dst.flags.writeable = False
    return RegionLayout(rows, deg, src, dst, sum(map(len, nbr_rows[: len(interior)])))


def build_window(g: Graph, interior: Iterable[str]) -> SubgraphWindow:
    """Build the window over an interior set.

    The interior must be nonempty and induce a connected subgraph.  The
    boundary is every outside vertex adjacent to the interior.  Both are
    stored in file order.
    """
    inner = [g.check_vertex(x) for x in interior]
    if not inner:
        raise ValidationError("window interior is empty")
    if len(set(inner)) != len(inner):
        raise ValidationError("window interior repeats a vertex")
    inner_set = set(inner)
    if not g.is_connected(within=inner):
        raise DisconnectedInteriorError(
            "window interior does not induce a connected subgraph"
        )
    boundary = [
        v
        for v in g.vertices
        if v not in inner_set and any(w in inner_set for w in g.neighbors(v))
    ]
    ordered_inner = [v for v in g.vertices if v in inner_set]
    return SubgraphWindow(g, tuple(ordered_inner), tuple(boundary))


class VertexFunction:
    """Real-valued function on a subset of the vertices.

    Stores its graph so that difference operators can see adjacency.  The
    domain is exactly the key set; evaluating off-domain raises DomainError
    via value().
    """

    def __init__(self, graph: Graph, values: Mapping[str, float]):
        self.graph = graph
        for x in values:
            graph.check_vertex(x)
        self.values: dict[str, float] = {
            v: float(values[v]) for v in graph.vertices if v in values
        }
        if not all(map(math.isfinite, self.values.values())):
            x = next(x for x, v in self.values.items() if not math.isfinite(v))
            raise ValidationError(f"value at {x!r} is not finite: {self.values[x]}")

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.values)

    def __contains__(self, x: str) -> bool:
        return x in self.values

    def value(self, x: str) -> float:
        self.graph.check_vertex(x)
        if x not in self.values:
            raise DomainError(f"function not defined at {x!r}")
        return self.values[x]

    def __call__(self, x: str) -> float:
        return self.value(x)

    def restrict(self, region: Iterable[str]) -> "VertexFunction":
        keep = set(region)
        return VertexFunction(self.graph, {x: v for x, v in self.values.items() if x in keep})

    def defined_on(self, region: Iterable[str]) -> bool:
        return all(x in self.values for x in region)


def gather(f: VertexFunction, xs: Sequence[str]) -> np.ndarray:
    """f's values at xs as a float array; value()'s error at the first x off
    f's domain."""
    try:
        return np.fromiter(map(f.values.__getitem__, xs), float, len(xs))
    except KeyError as e:
        f.value(e.args[0])  # raises: the vertex is off the domain
        raise


def scatter(g: Graph, xs: Sequence[str], vals: np.ndarray) -> VertexFunction:
    """The function with value vals[i] at xs[i], stored in file order.
    Neither xs (distinct vertices of g, such as a region's closure) nor vals
    is checked again."""
    by_vertex = dict(zip(xs, vals.tolist()))
    f = object.__new__(VertexFunction)
    f.graph = g
    f.values = {v: by_vertex[v] for v in g.vertices if v in by_vertex}
    return f


def monge_cost(
    g: Graph, sources: Sequence[str], targets: Sequence[str]
) -> tuple[int, tuple[int, ...]]:
    """Minimum total graph distance matching sources to targets.

    Returns (cost, assignment) where assignment[i] is the 1-based index of
    the target matched to sources[i].  Among all optimal assignments the
    lexicographically smallest index tuple is returned.

    The matching is solved exactly by dynamic programming over target
    subsets; sizes above MONGE_EXHAUSTIVE_BOUND are refused.
    """
    A = [g.check_vertex(a) for a in sources]
    B = [g.check_vertex(b) for b in targets]
    if len(A) != len(B):
        raise ValidationError(f"size mismatch: {len(A)} sources vs {len(B)} targets")
    if len(set(A)) != len(A) or len(set(B)) != len(B):
        raise ValidationError("repeated vertex in sources or targets")
    if set(A) & set(B):
        raise ValidationError(f"sources and targets overlap: {sorted(set(A) & set(B))}")
    n = len(A)
    if n == 0:
        raise ValidationError("empty transport problem")
    if n > MONGE_EXHAUSTIVE_BOUND:
        raise ValidationError(
            f"size {n} exceeds exhaustive bound {MONGE_EXHAUSTIVE_BOUND}"
        )

    dist = [[0] * n for _ in range(n)]
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            d = graph_distance(g, a, b)
            if d is None:
                raise ValidationError(f"no path from {a!r} to {b!r}")
            dist[i][j] = d

    # suf[mask] = least cost of matching the last popcount(mask) sources to
    # the targets in mask.  Reconstruction walks sources in order and takes
    # the smallest target index that stays optimal, which yields the
    # lexicographically smallest optimal assignment.
    full = (1 << n) - 1
    suf = [0] * (full + 1)
    for mask in range(1, full + 1):
        k = mask.bit_count()
        i = n - k
        best = None
        for j in range(n):
            if mask & (1 << j):
                cand = dist[i][j] + suf[mask & ~(1 << j)]
                if best is None or cand < best:
                    best = cand
        suf[mask] = best

    assignment = []
    mask = full
    for i in range(n):
        for j in range(n):
            bit = 1 << j
            if mask & bit and dist[i][j] + suf[mask & ~bit] == suf[mask]:
                assignment.append(j + 1)
                mask &= ~bit
                break
    return suf[full], tuple(assignment)
