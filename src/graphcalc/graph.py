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

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import _numpy as np
from .errors import (
    DanglingEndpointError,
    DisconnectedInteriorError,
    DomainError,
    DuplicateEdgeError,
    GraphParseError,
    NotAdjacentError,
    SelfLoopError,
    UnknownVertexError,
    ValidationError,
)

MONGE_EXHAUSTIVE_BOUND = 10
# spectral.OperatorSpec's boundary conditions, here so that the CLI's parser
# can offer them without running spectral
BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "none")


class Graph:
    """Undirected simple graph over opaque string vertex ids.

    Parameters
    ----------
    vertices : sequence of str
        Vertex ids in stable order, at least one.  Duplicates are rejected.
    edges : iterable of (str, str)
        Undirected edges, each checked in turn for a self-loop, an endpoint
        that is not a vertex and a repeat in either orientation.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if not self.vertices:
            raise GraphParseError("a graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphParseError("vertex names must be unique")
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        edge_list = []
        for x, y in edges:
            if x == y:
                raise SelfLoopError(f"self-loop at {x!r}")
            for v in (x, y):
                if v not in nbrs:
                    raise DanglingEndpointError(f"edge endpoint {v!r} is not a vertex")
            if y in nbrs[x]:
                raise DuplicateEdgeError(f"edge {x!r} -- {y!r} listed twice")
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

    @cached_property
    def layout(self) -> "RegionLayout":
        """The graph's region layout, rows in file order.  Built on first use."""
        return _region_layout(self, self.vertices, self.vertices)

    def bfs(self, root: str, within: Optional[Iterable[str]] = None) -> dict[str, Optional[str]]:
        """Breadth-first search from root, neighbors in file order.

        Maps each reached vertex, in the order reached, to the vertex it was
        first reached from; the root maps to None.  With within, the search
        stays inside it, though the root is always reached.
        """
        allowed = None if within is None else set(within)
        parent: dict[str, Optional[str]] = {self.check_vertex(root): None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in self._nbrs[v]:
                if w not in parent and (allowed is None or w in allowed):
                    parent[w] = v
                    queue.append(w)
        return parent

    def is_connected(self, within: Optional[Iterable[str]] = None) -> bool:
        verts = list(self.vertices) if within is None else [self.check_vertex(v) for v in within]
        return bool(verts) and len(self.bfs(verts[0], verts)) == len(set(verts))


def volume(g: Graph, region: Iterable[str]) -> int:
    """Degree-weighted volume of a vertex set: sum of ambient degrees."""
    return sum(g.degree(g.check_vertex(x)) for x in region)


def graph_distance(g: Graph, x0: str, x1: str) -> Optional[int]:
    """Shortest path length in edges between x0 and x1.

    Returns 0 for x0 == x1 and None when x1 is unreachable from x0.
    """
    parent = g.bfs(x0)
    if g.check_vertex(x1) not in parent:
        return None
    return _hops(parent, x1)


def _hops(parent: dict[str, Optional[str]], x: str) -> int:
    """The edges from a reached vertex x back to the root of a bfs parent map."""
    hops = 0
    while parent[x] is not None:
        x = parent[x]
        hops += 1
    return hops


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
    interior_pairs of them leave one of the interior_rows interior vertices,
    and so cover every neighbor of each.  The arrays are read-only.
    """

    rows: dict[str, int]
    deg: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    interior_pairs: int
    interior_rows: int
    _slots: dict = field(default_factory=dict, init=False, repr=False)  # by column count

    def __post_init__(self):
        self._slots[1] = self.src[: self.interior_pairs]  # the slots of one column

    def sums(self, pair_values: np.ndarray) -> np.ndarray:
        """Each interior row's sum of pair_values over the pairs leaving it,
        added in neighbor order from zero, as a pointwise sum over the
        neighbors adds them.

        pair_values holds one value per interior pair (1-D; one sum per
        interior row) or one row per interior pair with one column per
        function (2-D; one row of sums per interior row).
        """
        k = self.interior_rows
        if pair_values.ndim == 1:
            return np.bincount(self._slots[1], weights=pair_values, minlength=k)
        m = pair_values.shape[1]
        if m not in self._slots:
            self._slots[m] = (self._slots[1][:, None] * m + np.arange(m)).ravel()
        sums = np.bincount(self._slots[m], weights=pair_values.ravel(), minlength=k * m)
        return sums.reshape(k, m)

    def integral(self, rows: np.ndarray) -> Union[float, np.ndarray]:
        """Sum of rows[i] d_i over the interior rows, added in order from zero as
        integrate adds: a float for 1-D rows, one per column for 2-D."""
        deg = self.deg[: self.interior_rows]
        return column_sums(rows * (deg if rows.ndim == 1 else deg[:, None]))

    def energy(self, rows: np.ndarray) -> Union[float, np.ndarray]:
        """Sum of (f(y) - f(x))^2 over the ordered pairs (x, y) of closure
        rows f, added in pair order from zero; per column for 2-D rows."""
        d = rows[self.dst] - rows[self.src]
        return column_sums(d * d)

    def check_interior_degrees(self) -> None:
        """ValidationError naming the first interior vertex with no
        neighbor, whose sums would be divided by a zero degree."""
        deg = self.deg[: self.interior_rows]
        if not deg.all():
            raise ValidationError(f"vertex {list(self.rows)[int(deg.argmin())]!r} is isolated")

    @cached_property
    def pair_names(self) -> tuple[tuple[str, str], ...]:
        """The ordered pairs as (x, y) vertex names, in pair order."""
        names = list(self.rows)
        return tuple(zip(map(names.__getitem__, self.src.tolist()), map(names.__getitem__, self.dst.tolist())))


def column_sums(stack: np.ndarray) -> Union[float, np.ndarray]:
    """The sum down each column of a stack, adding the rows in order from
    zero as Python's sum adds its terms (np.sum pairs up the rows of a
    single column).  A 1-D stack sums to one float."""
    one = stack.ndim == 1  # a short 1-D array adds fastest as Python floats
    total = 0.0 if one else np.zeros(stack.shape[1:])
    for row in stack.tolist() if one else stack:
        total += row
    return total


def _region_layout(g: Graph, interior: tuple[str, ...], closure: tuple[str, ...]) -> RegionLayout:
    rows = {x: i for i, x in enumerate(closure)}
    nbr_rows = [[rows[y] for y in g._nbrs[x] if y in rows] for x in closure]
    src = np.repeat(np.arange(len(closure)), [len(r) for r in nbr_rows])
    dst = np.array([j for r in nbr_rows for j in r], dtype=np.intp)
    deg = np.array([len(g._nbrs[x]) for x in closure], dtype=float)
    deg.flags.writeable = src.flags.writeable = dst.flags.writeable = False
    k = len(interior)
    return RegionLayout(rows, deg, src, dst, sum(map(len, nbr_rows[:k])), k)


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
    if not g.is_connected(within=inner):
        raise DisconnectedInteriorError(
            "window interior does not induce a connected subgraph"
        )
    inner_set = set(inner)
    ordered_inner = tuple(v for v in g.vertices if v in inner_set)
    return SubgraphWindow(g, ordered_inner, vertex_boundary(g, inner_set))


def vertex_boundary(g: Graph, inner: set[str]) -> tuple[str, ...]:
    """Every vertex outside inner with a neighbor in it, in file order."""
    return tuple(v for v in g.vertices if v not in inner and not inner.isdisjoint(g._nbrs[v]))


class VertexFunction:
    """Real-valued function on a subset of the vertices.

    Stores its graph so that difference operators can see adjacency.  The
    domain is exactly the key set; evaluating off-domain raises DomainError
    via value().  A function from scatter_rows keeps its row of the shared
    array and the shared key tuple, and builds values on first read.
    """

    _row = None  # values in domain order, for a function from scatter_rows

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

    @cached_property
    def values(self) -> dict[str, float]:
        return dict(zip(self._keys, self._row.tolist()))

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.values) if self._row is None else self._keys

    def __contains__(self, x: str) -> bool:
        return x in self.values

    def value(self, x: str) -> float:
        self.graph.check_vertex(x)
        if x not in self.values:
            raise DomainError(f"function not defined at {x!r}")
        return self.values[x]

    def restrict(self, region: Iterable[str]) -> "VertexFunction":
        keep = set(region)
        return VertexFunction(self.graph, {x: v for x, v in self.values.items() if x in keep})


def gather(f: VertexFunction, xs: Sequence[str]) -> np.ndarray:
    """f's values at xs as a float array; value()'s error at the first x off
    f's domain.  At f's own domain order a function from scatter_rows copies
    its row."""
    if f._row is not None and (xs is f._keys or xs == f._keys):
        return f._row.copy()
    try:
        return np.fromiter(map(f.values.__getitem__, xs), float, len(xs))
    except KeyError as e:
        f.value(e.args[0])  # raises: the vertex is off the domain
        raise


def scatter(g: Graph, xs: Sequence[str], vals: np.ndarray) -> VertexFunction:
    """The function with value vals[i] at xs[i], stored in file order.
    Neither xs (distinct vertices of g, such as a region's closure) nor vals
    is checked again."""
    return scatter_rows(g, xs, vals[None])[0]


def scatter_rows(g: Graph, xs: Sequence[str], rows: np.ndarray) -> list[VertexFunction]:
    """scatter of each row of a 2-D array.  The functions share one array,
    rows itself when xs is in file order (it must not be written after) and
    otherwise a copy with the columns reordered; none builds a dict before
    its values are read."""
    pos = dict(zip(xs, range(len(xs))))
    keys = tuple(v for v in g.vertices if v in pos)
    table = rows if keys == tuple(xs) else rows[:, [pos[v] for v in keys]]
    out = []
    for row in table:
        f = object.__new__(VertexFunction)
        f.graph, f._row, f._keys = g, row, keys
        out.append(f)
    return out


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
        parent = g.bfs(a)
        for j, b in enumerate(B):
            if b not in parent:
                raise ValidationError(f"no path from {a!r} to {b!r}")
            dist[i][j] = _hops(parent, b)

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
