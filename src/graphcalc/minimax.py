"""Critical-vertex classification and a constructive minimax search.

A minimax vertex x of f sits on a "ridge": the neighborhood splits into two
arcs joining a pair of neighbors at or above f(x), each arc dipping to or
below f(x).  The search below locates such a level between two strict local
minima by repeatedly lowering a bottleneck path, mirroring the mountain-pass
argument but with every step explicit and checkable.
"""

import heapq
from dataclasses import dataclass
from typing import Optional

from .calculus import is_local_max, is_local_min
from .errors import ValidationError
from .graph import Graph, SubgraphWindow, VertexFunction

NEIGHBORHOOD_CAP = 12


@dataclass(frozen=True)
class MinimaxWitness:
    """Two neighbor arcs certifying the ridge structure at a vertex."""

    anchor_high: tuple[str, str]  # x0, x1 with f >= f(x)
    arc_plus: tuple[str, ...]  # path x0 .. x1 inside N(x)
    arc_minus: tuple[str, ...]  # complementary path x0 .. x1
    dip_plus: str  # vertex on arc_plus with f <= f(x)
    dip_minus: str


@dataclass(frozen=True)
class VertexClassification:
    vertex: str
    kinds: tuple[str, ...]
    notes: tuple[str, ...]
    witness: Optional[MinimaxWitness]


def _induced_neighbor_adjacency(g: Graph, x: str) -> tuple[list[str], dict[str, list[str]]]:
    nbrs = list(g.neighbors(x))
    present = set(nbrs)
    adj = {v: [w for w in g.neighbors(v) if w in present] for v in nbrs}
    return nbrs, adj


def _simple_paths(adj: dict[str, list[str]], src: str, dst: str):
    """All simple src-dst paths in deterministic file order, as tuples."""
    out: list[tuple[str, ...]] = []
    path = [src]
    on_path = {src}

    def walk(v: str) -> None:
        if v == dst:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                walk(w)
                path.pop()
                on_path.remove(w)

    walk(src)
    return out


def _first_dip(arc: tuple[str, ...], f: VertexFunction, level: float) -> Optional[str]:
    """Earliest vertex attaining the arc minimum, if that dips to the level."""
    best = min(f.value(v) for v in arc)
    if best > level:
        return None
    return next(v for v in arc if f.value(v) == best)


def _minimax_witness(g: Graph, f: VertexFunction, x: str) -> Optional[MinimaxWitness]:
    """Two ridge arcs at x, whose degree is at least 4 and whose
    neighborhood is connected, as classify_vertex checks first."""
    nbrs, adj = _induced_neighbor_adjacency(g, x)
    fx = f.value(x)
    highs = [v for v in nbrs if f.value(v) >= fx]
    for i, x0 in enumerate(nbrs):
        if x0 not in highs:
            continue
        for x1 in nbrs[i + 1 :]:
            if x1 not in highs:
                continue
            found = _simple_paths(adj, x0, x1)
            by_set: dict[frozenset, list[tuple[str, ...]]] = {}
            for p in found:
                by_set.setdefault(frozenset(p), []).append(p)
            want_all = frozenset(nbrs)
            for arc_plus in found:
                plus_set = frozenset(arc_plus)
                minus_set = (want_all - plus_set) | {x0, x1}
                # an arc on minus_set shares exactly x0 and x1 with arc_plus
                for arc_minus in by_set.get(minus_set, ()):
                    dip_p = _first_dip(arc_plus, f, fx)
                    dip_m = _first_dip(arc_minus, f, fx)
                    if dip_p is not None and dip_m is not None:
                        return MinimaxWitness((x0, x1), arc_plus, arc_minus, dip_p, dip_m)
    return None


def classify_vertex(g: Graph, f: VertexFunction, x: str) -> VertexClassification:
    """Local type of x under f: min/max (strict or not), minimax, regular.

    The minimax test enumerates simple paths in the induced neighborhood,
    hence the hard degree cap.
    """
    x = g.check_vertex(x)
    f.value(x)  # off f's domain is an error, even at an isolated x
    tests = (
        ("strict_local_min", is_local_min(f, x, strict=True)),
        ("local_min", is_local_min(f, x)),
        ("strict_local_max", is_local_max(f, x, strict=True)),
        ("local_max", is_local_max(f, x)),
    )
    kinds = [kind for kind, holds in tests if holds]
    notes: list[str] = []

    witness = None
    if g.degree(x) > NEIGHBORHOOD_CAP:
        raise ValidationError(
            f"minimax classification at {x!r} needs degree <= {NEIGHBORHOOD_CAP}, got {g.degree(x)}"
        )
    if g.degree(x) < 4:
        notes.append("degree below 4: minimax structure impossible")
    elif not g.is_connected(within=g.neighbors(x)):
        notes.append("neighborhood not connected: minimax structure impossible")
    else:
        witness = _minimax_witness(g, f, x)
        if witness is not None:
            kinds.append("minimax")
    if not kinds:
        kinds.append("regular")
    return VertexClassification(x, tuple(kinds), tuple(notes), witness)


def bottleneck_level(
    g: Graph, f: VertexFunction, z0: str, z1: str
) -> tuple[float, tuple[str, ...]]:
    """Smallest possible max of f along a z0-z1 path, with an optimal path.

    Dijkstra on the composite key (running max, vertex count, index tuple):
    each component is monotone along extensions, so the first settled entry
    at z1 is optimal and the reported path is the shortest and then
    lexicographically smallest among optimal ones.
    """
    z0 = g.check_vertex(z0)
    z1 = g.check_vertex(z1)
    for v in g.vertices:
        f.value(v)  # force total domain
    i0, i1 = g.index[z0], g.index[z1]
    start = (f.value(z0), 1, (i0,))
    heap = [start]
    settled: set[int] = set()
    while heap:
        level, length, path = heapq.heappop(heap)
        tail = path[-1]
        if tail in settled:
            continue
        settled.add(tail)
        if tail == i1:
            return level, tuple(g.vertices[i] for i in path)
        for w in g.neighbors(g.vertices[tail]):
            iw = g.index[w]
            if iw in settled or iw in path:
                continue
            heapq.heappush(heap, (max(level, f.value(w)), length + 1, path + (iw,)))
    raise ValidationError(f"no path connects {z0!r} and {z1!r}")


@dataclass(frozen=True)
class MinimaxSearchResult:
    level: float
    vertex: str
    path: tuple[str, ...]
    warnings: tuple[str, ...]


def _hypothesis_warnings(g: Graph, z: str) -> list[str]:
    out = []
    if g.degree(z) < 4:
        out.append(f"vertex {z!r} has degree {g.degree(z)} < 4")
    if not g.is_connected(within=g.neighbors(z)):
        out.append(f"neighborhood of {z!r} is not connected")
    return out


def _reroute(
    g: Graph, f: VertexFunction, path: list[str], k: int, level: float
) -> Optional[list[str]]:
    """Replace path[k] by a strictly-below-level detour between its path
    neighbors, avoiding every current path vertex.  BFS, file order."""
    pred, succ = path[k - 1], path[k + 1]
    on_path = set(path)
    below = [w for w in g.vertices if w not in on_path and f.value(w) < level]
    parent = g.bfs(pred, below + [succ])
    if succ not in parent:
        return None
    detour = [succ]
    while parent[detour[-1]] is not None:
        detour.append(parent[detour[-1]])
    return path[: k - 1] + detour[::-1] + path[k + 2 :]


def find_minimax(g: Graph, f: VertexFunction, z0: str, z1: str) -> MinimaxSearchResult:
    """Locate a candidate minimax vertex separating two strict local minima.

    Starting from an optimal bottleneck path at level c, vertices attaining
    c are inspected in path order; one whose off-path neighbors all sit at
    or above c is returned.  Otherwise some attaining vertex has a
    below-level escape: if an admissible detour exists the path is rerouted
    (strictly shrinking the attaining set), and if none exists the first
    attaining vertex is returned with a warning, since the level is then
    pinned by the graph and not by any single ridge vertex.
    """
    z0 = g.check_vertex(z0)
    z1 = g.check_vertex(z1)
    if z0 == z1:
        raise ValidationError("endpoints must be distinct")
    for z, name in ((z0, "start"), (z1, "end")):
        if not is_local_min(f, z, strict=True):
            raise ValidationError(f"{name} vertex {z!r} is not a strict local minimum")
    level, path0 = bottleneck_level(g, f, z0, z1)
    path = list(path0)
    while True:
        attaining = [k for k, v in enumerate(path) if f.value(v) == level]
        assert attaining, "bottleneck level must be attained on its own path"
        on_path = set(path)
        for k in attaining:
            z = path[k]
            if all(f.value(w) >= level for w in g.neighbors(z) if w not in on_path):
                warnings = _hypothesis_warnings(g, z)
                return MinimaxSearchResult(level, z, tuple(path), tuple(warnings))
        rerouted = False
        for k in attaining:
            new_path = _reroute(g, f, path, k, level)
            if new_path is not None:
                path = new_path
                rerouted = True
                break
        if not rerouted:
            z = path[attaining[0]]
            warnings = [
                f"vertex {z!r} keeps a below-level neighbor but no admissible detour exists"
            ]
            warnings.extend(_hypothesis_warnings(g, z))
            return MinimaxSearchResult(level, z, tuple(path), tuple(warnings))


def is_coercive_on_window(f: VertexFunction, w: SubgraphWindow) -> bool:
    """True when f on the boundary strictly dominates f on the interior."""
    if not w.boundary:
        return False
    lo = min(f.value(b) for b in w.boundary)
    hi = max(f.value(x) for x in w.interior)
    return lo > hi
